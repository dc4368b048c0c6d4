package livemon

import (
	"sync"
	"testing"
	"time"

	"rdmamon/internal/connpool"
	"rdmamon/internal/core"
)

// startFleet launches n RDMA-Sync agents and returns their addresses.
func startFleet(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		a, err := StartAgent(Config{Scheme: core.RDMASync, NodeID: uint16(i + 1), Provider: synthetic(i + 1)})
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
		t.Cleanup(func() { a.Close() })
		addrs[i] = a.Addr()
	}
	return addrs
}

// TestPooledMonitor polls a fleet through probes that share one
// connection pool whose budget is smaller than the fleet: every target
// must still produce records (eviction recycles idle conns to make
// room), the budget must hold, and Close must return every connection.
func TestPooledMonitor(t *testing.T) {
	leakCheck(t)
	addrs := startFleet(t, 6)
	cp := NewConnPool(PoolConfig{Config: connpool.Config{MaxConns: 4, DialsPerSec: 500}})
	defer cp.Close()
	probes := make([]*Probe, len(addrs))
	for i, addr := range addrs {
		p, err := DialPooled(cp, addr)
		if err != nil {
			t.Fatalf("dial %s: %v", addr, err)
		}
		probes[i] = p
	}
	for sweep := 0; sweep < 3; sweep++ {
		for i, p := range probes {
			rec, err := p.Fetch()
			if err != nil {
				t.Fatalf("sweep %d target %d: %v", sweep, i, err)
			}
			if int(rec.NodeID) != i+1 {
				t.Fatalf("target %d served node %d", i, rec.NodeID)
			}
		}
	}

	st := cp.pool.Stats()
	if st.MaxLive > 4 {
		t.Fatalf("pool exceeded its budget: MaxLive %d > 4", st.MaxLive)
	}
	if st.Evictions == 0 {
		t.Fatalf("6 targets over 4 conns never evicted: %+v", st)
	}
	cp.Close()
	if st := cp.pool.Stats(); st.Live != 0 || st.Dialing != 0 {
		t.Fatalf("connections survived Close: %+v", st)
	}
}

// TestMonitorCloseIdempotent closes a monitor from several goroutines
// at once, then again after: no panic, no deadlock, and every caller
// returns only after teardown is complete (leakCheck finds a poll loop
// or connection that outlived it).
func TestMonitorCloseIdempotent(t *testing.T) {
	leakCheck(t)
	addrs := startFleet(t, 3)
	m, errs := NewMonitor(addrs, MonitorConfig{Interval: 10 * time.Millisecond})
	if len(errs) != 0 {
		t.Fatalf("dial errors: %v", errs)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Close()
		}()
	}
	wg.Wait()
	m.Close() // and once more, sequentially
}

// closeConcurrently closes from four goroutines at once, then twice
// more: no panic, no deadlock, and the later calls agree.
func closeConcurrently(t *testing.T, close func() error) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			close()
		}()
	}
	wg.Wait()
	if e1, e2 := close(), close(); e1 != e2 {
		t.Fatalf("repeated Close changed its answer: %v then %v", e1, e2)
	}
}

// TestAgentCloseIdempotent double-closes an agent concurrently; the
// verbs listener must tear down exactly once with no panic.
func TestAgentCloseIdempotent(t *testing.T) {
	leakCheck(t)
	a, err := StartAgent(Config{Scheme: core.SocketAsync, NodeID: 1, Provider: synthetic(1)})
	if err != nil {
		t.Fatal(err)
	}
	closeConcurrently(t, a.Close)
}

// TestPushAndClaimCloseIdempotent does the same to the push host, a
// pusher and a claim client.
func TestPushAndClaimCloseIdempotent(t *testing.T) {
	leakCheck(t)
	h, err := StartPushHost("127.0.0.1:0", []uint16{1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := startPusher(PusherConfig{Target: h.Addr(), Check: time.Millisecond}, 1, synthetic(1))
	if err != nil {
		t.Fatal(err)
	}
	l := dialClaims(t, startWitness(t, 1).Addr(), 1, 0, claimTestCfg())
	closeConcurrently(t, p.Close)
	closeConcurrently(t, h.Close)
	closeConcurrently(t, l.Close)
}

// TestPooledProbeFailover checks that a pooled probe still runs the
// failover ladder: kill the agent, and the pooled fetch must fail (and
// recycle its lease) rather than hang or serve a stale record.
func TestPooledProbeFailover(t *testing.T) {
	leakCheck(t)
	a, err := StartAgent(Config{Scheme: core.RDMASync, NodeID: 1, Provider: synthetic(3)})
	if err != nil {
		t.Fatal(err)
	}
	cp := NewConnPool(PoolConfig{Config: connpool.Config{MaxConns: 2}})
	defer cp.Close()
	p, err := DialPooled(cp, a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Fetch(); err != nil {
		t.Fatalf("pooled fetch: %v", err)
	}
	a.Close()
	if _, err := p.Fetch(); err == nil {
		t.Fatal("fetch succeeded against a dead agent")
	}
	st := cp.pool.Stats()
	if st.Recycles == 0 && st.DialErrors == 0 {
		t.Fatalf("dead agent neither recycled nor failed a dial: %+v", st)
	}
}
