package livemon

import (
	"testing"
	"time"

	"rdmamon/internal/core"
)

// TestFailoverMRInvalidationLive drives the live transport breaker end
// to end over real sockets: an RDMA-Sync probe keeps fetching through
// an MR invalidation — degrading to the agent's standby channel in the
// same fetch — trips onto socket probing, and fails back to RDMA after
// the agent re-pins its region.
func TestFailoverMRInvalidationLive(t *testing.T) {
	a, pr := startPair(t, core.RDMASync, synthetic(5))
	pr.SetFailover()
	pr.SeedJitter(1)

	rec, tr, err := pr.FetchVia()
	if err != nil || tr != core.TransportRDMA || rec.NodeID != 7 {
		t.Fatalf("healthy fetch: rec=%+v tr=%v err=%v", rec, tr, err)
	}

	// Invalidate; the agent re-pins 300ms from now.
	a.InvalidateMR(300 * time.Millisecond)

	// The very next fetch must degrade to the standby — the RDMA read
	// fails (stale key, and the refreshed handshake has no region to
	// offer yet), the breaker counts the failure, and the record still
	// arrives over the socket channel in the same call.
	rec, tr, err = pr.FetchVia()
	if err != nil {
		t.Fatalf("fetch during outage: %v — fallback must mask RDMA-only breakage", err)
	}
	if tr != core.TransportSocket || rec.NodeID != 7 {
		t.Fatalf("fetch during outage: rec=%+v tr=%v, want socket-served record", rec, tr)
	}

	// Second consecutive failure trips the breaker (tripAfter is 2).
	if _, tr, err = pr.FetchVia(); err != nil || tr != core.TransportSocket {
		t.Fatalf("second outage fetch: tr=%v err=%v", tr, err)
	}
	fo := pr.st.Failover
	if fo == nil || !fo.Tripped() {
		t.Fatal("breaker not tripped after two consecutive RDMA failures")
	}
	if fo.Trips != 1 {
		t.Fatalf("Trips = %d, want 1", fo.Trips)
	}

	// While tripped, fetches keep flowing over the standby; every 4th
	// carries a background re-arm probe. After the re-pin the re-arm
	// re-handshake picks up the fresh rkey, and two consecutive
	// successes fail the breaker back.
	deadline := time.Now().Add(15 * time.Second)
	for fo.Tripped() {
		if time.Now().After(deadline) {
			t.Fatal("breaker never failed back after MR re-pin")
		}
		if _, tr, err = pr.FetchVia(); err != nil || tr != core.TransportSocket {
			t.Fatalf("tripped fetch: tr=%v err=%v", tr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if fo.FailBacks != 1 {
		t.Fatalf("FailBacks = %d, want 1", fo.FailBacks)
	}

	// Back on the preferred transport, serving fresh records.
	rec, tr, err = pr.FetchVia()
	if err != nil || tr != core.TransportRDMA || rec.NodeID != 7 {
		t.Fatalf("post-fail-back fetch: rec=%+v tr=%v err=%v", rec, tr, err)
	}
	if pr.st.Fallbacks == 0 || pr.st.ReArms == 0 {
		t.Fatalf("Fallbacks/ReArms = %d/%d, want both non-zero", pr.st.Fallbacks, pr.st.ReArms)
	}
}

// TestFailoverNoopOnSocketScheme: arming a breaker on a socket-scheme
// probe is documented as a no-op — there is no faster transport to
// fall back from.
func TestFailoverNoopOnSocketScheme(t *testing.T) {
	_, pr := startPair(t, core.SocketSync, synthetic(3))
	pr.SetFailover()
	if pr.st.Failover != nil {
		t.Fatal("socket-scheme probe grew a breaker")
	}
	rec, tr, err := pr.FetchVia()
	if err != nil || tr != core.TransportSocket || rec.NrRunning != 3 {
		t.Fatalf("fetch: rec=%+v tr=%v err=%v", rec, tr, err)
	}
}

// TestFailoverUnarmedUnchanged: without SetFailover an RDMA probe keeps
// the seed behaviour — FetchVia reports RDMA and survives an agent MR
// re-pin via its one re-handshake retry (no breaker involved).
func TestFailoverUnarmedUnchanged(t *testing.T) {
	a, pr := startPair(t, core.RDMASync, synthetic(5))
	if _, tr, err := pr.FetchVia(); err != nil || tr != core.TransportRDMA {
		t.Fatalf("fetch: tr=%v err=%v", tr, err)
	}
	// Instant re-pin: the region comes back immediately with a new key;
	// the retry's re-handshake must absorb the rotation.
	a.InvalidateMR(1 * time.Millisecond)
	time.Sleep(50 * time.Millisecond)
	if _, tr, err := pr.FetchVia(); err != nil || tr != core.TransportRDMA {
		t.Fatalf("fetch after key rotation: tr=%v err=%v", tr, err)
	}
	if pr.Rehandshakes == 0 {
		t.Fatal("key rotation absorbed without a re-handshake?")
	}
}

// TestMonitorFailoverDegraded drives the monitor's degraded branch: a
// breaker armed through MonitorConfig.Failover keeps an RDMA target's
// records flowing over the standby channel after its region is gone
// for good, and the monitor reports it Degraded, served by socket.
func TestMonitorFailoverDegraded(t *testing.T) {
	leakCheck(t)
	a, err := StartAgent(Config{Scheme: core.RDMASync, NodeID: 7, Provider: synthetic(5), Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	addr := a.Addr()
	m, dialErrs := NewMonitor([]string{addr}, MonitorConfig{
		Interval: 10 * time.Millisecond,
		Failover: true,
	})
	defer m.Close()
	if len(dialErrs) != 0 {
		t.Fatal(dialErrs)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: health=%v transport=%v err=%v", what, m.Health(addr), m.Transport(addr), m.Err(addr))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("first record over RDMA", func() bool {
		_, _, ok := m.Latest(addr)
		return ok && m.Transport(addr) == core.TransportRDMA && m.Health(addr) == core.Healthy
	})

	a.InvalidateMR(0) // deregistered, never re-pinned
	waitFor("degraded over socket", func() bool {
		return m.Health(addr) == core.Degraded && m.Transport(addr) == core.TransportSocket
	})
	first, _, _ := m.Latest(addr)
	waitFor("records keep flowing", func() bool {
		rec, _, _ := m.Latest(addr)
		return rec.Seq > first.Seq
	})
	if err := m.Err(addr); err != nil {
		t.Fatalf("fetch error while degraded: %v", err)
	}
	if h, tr := m.Health(addr), m.Transport(addr); h != core.Degraded || tr != core.TransportSocket {
		t.Fatalf("after more records: health=%v transport=%v, want degraded over socket", h, tr)
	}
}

// TestFallbackCountsUnansweredStandby: Fallbacks counts every attempt
// over the standby channel, answered or not, as the simulated prober
// does. With the agent gone, the RDMA read and its re-handshake fail,
// the breaker falls back, and the standby fails too: one fallback, one
// error.
func TestFallbackCountsUnansweredStandby(t *testing.T) {
	a, err := StartAgent(Config{Scheme: core.RDMASync, NodeID: 7, Provider: synthetic(5)})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := DialTimeout(a.Addr(), 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	pr.SetFailover()
	if _, err := pr.Fetch(); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if _, tr, err := pr.FetchVia(); err == nil || tr != core.TransportRDMA {
		t.Fatalf("fetch of a closed agent: tr=%v err=%v, want the RDMA read's error", tr, err)
	}
	if pr.st.Fallbacks != 1 || pr.st.Errors != 1 || pr.st.Health.State() != core.Suspect {
		t.Fatalf("fallbacks=%d errors=%d health=%v, want 1, 1, suspect",
			pr.st.Fallbacks, pr.st.Errors, pr.st.Health.State())
	}
}
