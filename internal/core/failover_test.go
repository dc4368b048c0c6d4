package core

import (
	"testing"

	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

// TestFailoverTrip: the breaker trips after exactly tripAfter
// consecutive primary failures, and a success in between resets the run.
func TestFailoverTrip(t *testing.T) {
	fo := &Failover{} // tripAfter 2
	if fo.Tripped() {
		t.Fatal("fresh breaker must be armed on RDMA")
	}
	if fo.PrimaryFail() {
		t.Fatal("tripped after one failure, want tripAfter=2")
	}
	fo.PrimaryOK() // success resets the failure run
	if fo.PrimaryFail() {
		t.Fatal("tripped after reset+one failure")
	}
	if !fo.PrimaryFail() {
		t.Fatal("did not trip after two consecutive failures")
	}
	if !fo.Tripped() {
		t.Fatal("tripped breaker must route to socket")
	}
	if fo.Trips != 1 {
		t.Fatalf("Trips = %d, want 1", fo.Trips)
	}
	// Further primary failures while tripped are no-ops.
	if fo.PrimaryFail() {
		t.Fatal("PrimaryFail while tripped reported a fresh trip")
	}
	if fo.Trips != 1 {
		t.Fatalf("Trips = %d after redundant failure, want 1", fo.Trips)
	}
}

// TestFailoverReArmSchedule: no re-arm while armed; while tripped the
// first cycle never re-arms and every reArmEvery-th cycle does.
func TestFailoverReArmSchedule(t *testing.T) {
	fo := &Failover{}
	if fo.ShouldReArm() {
		t.Fatal("armed breaker scheduled a re-arm probe")
	}
	fo.PrimaryFail()
	fo.PrimaryFail() // trip
	var got []bool
	for i := 0; i < 9; i++ {
		got = append(got, fo.ShouldReArm())
	}
	want := []bool{false, false, false, true, false, false, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("re-arm schedule = %v, want %v", got, want)
		}
	}
}

// TestFailoverFailBackHysteresis: fail-back needs failBackAfter
// consecutive re-arm successes; a failure in between resets the run.
func TestFailoverFailBackHysteresis(t *testing.T) {
	fo := &Failover{} // failBackAfter 2
	if fo.ReArmOK() {
		t.Fatal("ReArmOK on an armed breaker reported a fail-back")
	}
	fo.PrimaryFail()
	fo.PrimaryFail() // trip
	if fo.ReArmOK() {
		t.Fatal("failed back after one re-arm success, want 2")
	}
	fo.ReArmFail() // flap: success run must reset
	if fo.ReArmOK() {
		t.Fatal("failed back after reset+one success")
	}
	if !fo.ReArmOK() {
		t.Fatal("did not fail back after two consecutive successes")
	}
	if fo.Tripped() {
		t.Fatal("failed-back breaker must be armed on RDMA")
	}
	if fo.Trips != 1 || fo.FailBacks != 1 {
		t.Fatalf("Trips/FailBacks = %d/%d, want 1/1", fo.Trips, fo.FailBacks)
	}
	// After fail-back the trip counter starts fresh: it takes tripAfter
	// failures again, not a stale carry-over.
	if fo.PrimaryFail() {
		t.Fatal("breaker re-tripped on a single failure after fail-back")
	}
}

// TestFailoverHooks: transition observers fire exactly once per
// transition, in order.
func TestFailoverHooks(t *testing.T) {
	var events []string
	fo := &Failover{
		OnTrip:     func() { events = append(events, "trip") },
		OnFailBack: func() { events = append(events, "failback") },
	}
	fo.PrimaryFail()
	fo.PrimaryFail()
	fo.ReArmOK()
	fo.ReArmOK()
	if len(events) != 2 || events[0] != "trip" || events[1] != "failback" {
		t.Fatalf("events = %v, want [trip failback]", events)
	}
}

// TestProberFailoverEndToEnd drives the full degradation cycle in the
// simulator: an RDMA-Sync prober with an armed breaker and a standby
// socket agent keeps records flowing through an MR invalidation —
// degrading to the socket channel in the same probe cycle — and fails
// back to RDMA after the agent re-pins its region.
func TestProberFailoverEndToEnd(t *testing.T) {
	r := newRig(7)
	a := StartAgent(r.backend, r.bnic, AgentConfig{Scheme: RDMASync, StandbySocket: true})
	poll := 10 * sim.Millisecond
	p := StartMonitor(r.front, r.fnic, []*Agent{a}, poll).Probers[r.backend.ID]
	p.Timeout = poll
	p.Failover = &Failover{} // defaults: trip 2, fail-back 2, re-arm every 4

	transports := make(map[Transport]int)
	p.OnRecord = func(rec wire.LoadRecord, at sim.Time) {
		transports[p.LastTransport]++
	}

	// Healthy warm-up: RDMA only.
	r.eng.RunUntil(200 * sim.Millisecond)
	if transports[TransportSocket] != 0 || transports[TransportRDMA] == 0 {
		t.Fatalf("warm-up transports = %v, want RDMA only", transports)
	}
	if p.Health.State() != Healthy {
		t.Fatalf("warm-up health = %v", p.Health.State())
	}

	// Invalidate the region; the agent re-pins 300ms later.
	a.InvalidateMR(300 * sim.Millisecond)

	// Within two polls the prober must have degraded to the standby —
	// same-cycle fallback means no record gap at all.
	preSocket := transports[TransportSocket]
	r.eng.RunUntil(230 * sim.Millisecond)
	if transports[TransportSocket] <= preSocket {
		t.Fatal("no socket-served record within two polls of MR invalidation")
	}
	if p.LastTransport != TransportSocket {
		t.Fatalf("LastTransport = %v during outage, want socket", p.LastTransport)
	}
	if p.Health.State() != Degraded {
		t.Fatalf("health = %v during outage, want degraded", p.Health.State())
	}
	if p.Errors != 0 {
		t.Fatalf("probe errors = %d: fallback must mask RDMA-only breakage", p.Errors)
	}

	// A few more cycles: the breaker must be tripped (2 consecutive RDMA
	// failures at 10ms poll) and still serving records.
	r.eng.RunUntil(290 * sim.Millisecond)
	if !p.Failover.Tripped() {
		t.Fatal("breaker not tripped during sustained RDMA outage")
	}
	if p.Failover.Trips != 1 {
		t.Fatalf("Trips = %d, want 1", p.Failover.Trips)
	}

	// After the re-pin at 500ms, background re-arm probes (every 4th
	// fallback cycle) need 2 consecutive successes: allow a generous
	// window, then the breaker must be armed and probing RDMA again.
	r.eng.RunUntil(1500 * sim.Millisecond)
	if p.Failover.Tripped() {
		t.Fatal("breaker still tripped 1s after MR re-pin")
	}
	if p.Failover.FailBacks != 1 {
		t.Fatalf("FailBacks = %d, want 1", p.Failover.FailBacks)
	}
	if p.LastTransport != TransportRDMA {
		t.Fatalf("LastTransport = %v after fail-back, want rdma", p.LastTransport)
	}
	if p.Health.State() != Healthy {
		t.Fatalf("health = %v after fail-back, want healthy", p.Health.State())
	}
	if p.ReArms == 0 || p.Fallbacks == 0 {
		t.Fatalf("ReArms/Fallbacks = %d/%d, want both non-zero", p.ReArms, p.Fallbacks)
	}

	// Records must never have stopped: the staleness gap is bounded by
	// roughly one probe cycle throughout the outage.
	if _, at, ok := p.Latest(); !ok || r.eng.Now()-at > 3*poll {
		t.Fatalf("latest record stale by %v at end of run", r.eng.Now()-at)
	}
}

// TestFailoverThresholdOrder pins the breaker's thresholds against the
// health machine's: under consecutive RDMA failures the breaker trips
// while the back-end is still short of Quarantined, and with every
// re-arm succeeding the nominal fail-back takes failBackAfter·reArmEvery
// = 8 fallback cycles.
func TestFailoverThresholdOrder(t *testing.T) {
	fo := &Failover{}
	var ht HealthTracker
	for !fo.PrimaryFail() {
		ht.Fail()
	}
	if h := ht.Fail(); h == Quarantined {
		t.Fatalf("breaker tripped only when health reached %v: tripAfter (%d) must stay below quarantineAfter (%d)",
			h, tripAfter, quarantineAfter)
	}
	cycles := 0
	for fo.Tripped() {
		cycles++
		if fo.ShouldReArm() {
			fo.ReArmOK()
		}
	}
	if cycles != 8 {
		t.Fatalf("fail-back took %d fallback cycles, want 8 (failBackAfter %d × reArmEvery %d)",
			cycles, failBackAfter, reArmEvery)
	}
}
