package livemon

import (
	"net"
	"testing"
	"time"

	"rdmamon/internal/core"
	"rdmamon/internal/tcpverbs"
)

// silentListener accepts connections and never writes a byte — the
// "accepted but stalled" failure mode that used to hang a deadline-less
// reader forever.
func silentListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			// Read and discard so the client's write succeeds; never reply.
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln
}

// TestProbeTimeoutOnStalledAgent: an agent that accepts the connection
// but never answers must cost a bounded wait, not a hung probe.
func TestProbeTimeoutOnStalledAgent(t *testing.T) {
	ln := silentListener(t)

	done := make(chan error, 1)
	go func() {
		_, err := DialTimeout(ln.Addr().String(), 100*time.Millisecond)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("dial against a silent agent succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dial against a silent agent hung past every deadline")
	}
}

// TestCallTimeoutOnStalledAgent exercises the same property one layer
// down: an established tcpverbs connection whose peer goes silent.
func TestCallTimeoutOnStalledAgent(t *testing.T) {
	ln := silentListener(t)
	c, err := tcpverbs.DialTimeout(ln.Addr().String(), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Retry = tcpverbs.RetryPolicy{Attempts: 2, Backoff: 10 * time.Millisecond}
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(portProbe, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call against a silent peer succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call against a silent peer hung past every deadline")
	}
}

// TestProbeReconnectsAfterAgentRestart: kill the agent, restart it on
// the same address, and the same Probe must recover — redialing the
// transport and re-handshaking for the fresh region key.
func TestProbeReconnectsAfterAgentRestart(t *testing.T) {
	prov := synthetic(5)
	a, err := StartAgent(Config{Scheme: core.RDMASync, NodeID: 7, Provider: prov})
	if err != nil {
		t.Fatal(err)
	}
	addr := a.Addr()

	pr, err := DialTimeout(addr, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	if _, err := pr.Fetch(); err != nil {
		t.Fatalf("pre-restart fetch: %v", err)
	}

	a.Close()
	if _, err := pr.Fetch(); err == nil {
		t.Fatal("fetch succeeded against a closed agent")
	}

	// Restart on the same address (the dead listener released the port).
	var b *Agent
	for i := 0; i < 50; i++ {
		b, err = StartAgent(Config{Scheme: core.RDMASync, NodeID: 7, Provider: prov, Addr: addr})
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer b.Close()

	var lastErr error
	ok := false
	for i := 0; i < 50 && !ok; i++ {
		r, err := pr.Fetch()
		if err == nil && r.NodeID == 7 {
			ok = true
			break
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
	if !ok {
		t.Fatalf("probe never recovered after restart: %v", lastErr)
	}
}

// TestMonitorQuarantineAndReadmit: the live monitor condemns a killed
// agent after consecutive failures and re-admits it through probation
// once it is back. Run with -race: health state is shared between the
// poll goroutine and the assertions here.
func TestMonitorQuarantineAndReadmit(t *testing.T) {
	prov := synthetic(5)
	a, err := StartAgent(Config{Scheme: core.SocketSync, NodeID: 7, Provider: prov})
	if err != nil {
		t.Fatal(err)
	}
	addr := a.Addr()

	m, dialErrs := NewMonitor([]string{addr}, MonitorConfig{Interval: 20 * time.Millisecond})
	if len(dialErrs) != 0 {
		t.Fatalf("dial errors: %v", dialErrs)
	}
	defer m.Close()

	waitHealth := func(want core.Health, within time.Duration) bool {
		deadline := time.Now().Add(within)
		for time.Now().Before(deadline) {
			if m.Health(addr) == want {
				return true
			}
			time.Sleep(5 * time.Millisecond)
		}
		return false
	}

	if !waitHealth(core.Healthy, 2*time.Second) {
		t.Fatalf("target never became healthy: %v", m.Err(addr))
	}

	a.Close()
	if !waitHealth(core.Quarantined, 10*time.Second) {
		t.Fatalf("killed agent never quarantined (health=%v err=%v)", m.Health(addr), m.Err(addr))
	}
	var b *Agent
	for i := 0; i < 50; i++ {
		b, err = StartAgent(Config{Scheme: core.SocketSync, NodeID: 7, Provider: prov, Addr: addr})
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer b.Close()

	if !waitHealth(core.Healthy, 10*time.Second) {
		t.Fatalf("restarted agent never re-admitted (health=%v err=%v)", m.Health(addr), m.Err(addr))
	}
	if _, at, ok := m.Latest(addr); !ok || time.Since(at) > 5*time.Second {
		t.Fatalf("no fresh record after recovery (ok=%v age=%v)", ok, time.Since(at))
	}
}
