package admission_test

import (
	"testing"

	"rdmamon/internal/admission"

	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/loadbalance"
	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

func recWithLoad(node int, util int, conns int) wire.LoadRecord {
	r := wire.LoadRecord{
		NumCPU: 2, NodeID: uint16(node), Conns: uint16(conns),
		NrRunning:  uint16(conns / 4),
		MemUsedKB:  uint32(conns) * 1024,
		MemTotalKB: 1 << 20,
	}
	r.UtilPerMille[0] = uint16(util)
	r.UtilPerMille[1] = uint16(util)
	return r
}

// view is a dispatch view over backends reading records from loads.
func view(loads map[int]wire.LoadRecord, backends ...int) *loadbalance.View {
	return &loadbalance.View{Backends: backends,
		Source: func(b int) (wire.LoadRecord, bool) { r, ok := loads[b]; return r, ok }}
}

func TestAdmitWhenCapacityExists(t *testing.T) {
	loads := map[int]wire.LoadRecord{
		1: recWithLoad(1, 1000, 64),
		2: recWithLoad(2, 100, 2),
	}
	c := admission.New(admission.Config{}, view(loads, 1, 2))
	if !c.Admit() {
		t.Fatal("should admit: node 2 has capacity")
	}
	if c.Admitted != 1 || c.Rejected != 0 {
		t.Fatalf("counters: %d/%d", c.Admitted, c.Rejected)
	}
}

func TestRejectWhenAllFull(t *testing.T) {
	full := recWithLoad(1, 1000, 64)
	c := admission.New(admission.Config{}, view(map[int]wire.LoadRecord{1: full, 2: full, 3: full}, 1, 2, 3))
	if c.Admit() {
		t.Fatal("should reject: every backend saturated")
	}
	if c.Admitted != 0 || c.Rejected != 1 {
		t.Fatalf("counters: %d/%d", c.Admitted, c.Rejected)
	}
}

func TestMissingRecordIsOptimistic(t *testing.T) {
	c := admission.New(admission.Config{}, view(nil, 1))
	if !c.Admit() {
		t.Fatal("no record yet should admit")
	}
}

func TestRejectRateEmpty(t *testing.T) {
	c := admission.New(admission.Config{}, nil)
	if c.Admitted != 0 || c.Rejected != 0 {
		t.Fatal("empty controller should count no requests")
	}
	if c.Cfg.Threshold <= 0 {
		t.Fatal("zero threshold should take default")
	}
}

func TestClusterAdmissionEndToEnd(t *testing.T) {
	// Saturate a tiny cluster; the controller must start rejecting,
	// and rejected requests must flow back to the clients as such.
	c := cluster.New(cluster.Config{Backends: 2, Scheme: core.RDMASync, Seed: 5})
	ctl := c.EnableAdmission(admission.Config{Threshold: 0.5})
	pool := c.StartRUBiS(128, 10*sim.Millisecond, 6)
	c.Run(8 * sim.Second)
	if ctl.Admitted == 0 {
		t.Fatal("nothing admitted")
	}
	if ctl.Rejected == 0 {
		t.Fatal("an overloaded 2-node cluster should reject some load")
	}
	if pool.Rejected == 0 {
		t.Fatal("clients should observe rejections")
	}
	if pool.Completed == 0 {
		t.Fatal("admitted requests should still complete")
	}
	// Accounting closes: every client cycle ended one way.
	if ctl.Rejected != pool.Rejected+uint64(0) && pool.Rejected > ctl.Rejected {
		t.Fatalf("rejects: controller %d vs clients %d", ctl.Rejected, pool.Rejected)
	}
}

func TestAdmissionKeepsLatencyBounded(t *testing.T) {
	// With admission on, served requests should see bounded latency
	// even under extreme offered load.
	run := func(enable bool) (mean float64, served uint64) {
		c := cluster.New(cluster.Config{Backends: 2, Scheme: core.RDMASync, Seed: 7})
		if enable {
			c.EnableAdmission(admission.Config{Threshold: 0.6})
		}
		pool := c.StartRUBiS(192, 5*sim.Millisecond, 8)
		c.Run(6 * sim.Second)
		return pool.All.Mean(), pool.Completed
	}
	meanOff, _ := run(false)
	meanOn, servedOn := run(true)
	if servedOn == 0 {
		t.Fatal("no requests served with admission on")
	}
	if meanOn >= meanOff {
		t.Fatalf("admission control should cut served-request latency: %v vs %v",
			meanOn, meanOff)
	}
}

// TestIneligibleBackendsAreNoCapacity: a quarantined back-end's stale,
// idle-looking record must not admit requests the dispatcher will never
// be able to route to it.
func TestIneligibleBackendsAreNoCapacity(t *testing.T) {
	loads := map[int]wire.LoadRecord{
		1: recWithLoad(1, 1000, 64), // saturated but alive
		2: recWithLoad(2, 50, 1),    // looks idle — but it is dead
	}
	v := view(loads, 1, 2)
	v.Exclude = func(b int) bool { return b == 2 }
	c := admission.New(admission.Config{}, v)
	if c.Admit() {
		t.Fatal("admitted against a dead back-end's stale record")
	}
	// The same cluster with node 2 alive admits.
	c2 := admission.New(admission.Config{}, view(loads, 1, 2))
	if !c2.Admit() {
		t.Fatal("should admit when the idle back-end is actually alive")
	}
}

// TestDegradedPenaltyMatchesDispatch: a back-end just under the
// threshold over a degraded transport must be handicapped past it —
// with the same default penalty the dispatch policy uses.
func TestDegradedPenaltyMatchesDispatch(t *testing.T) {
	// DefaultWeights CPU weight is 0.35: util 820/1000 -> index ~0.287.
	marginal := recWithLoad(1, 820, 0)
	cfg := admission.Config{Threshold: 0.30, Weights: core.DefaultWeights()}
	v := view(map[int]wire.LoadRecord{1: marginal}, 1)
	v.Degraded = func(int) bool { return true }
	c := admission.New(cfg, v)
	if c.Admit() {
		t.Fatal("degraded penalty (default 0.05) should tip 0.287 past threshold 0.30")
	}
	// Healthy transport: same record admits.
	c2 := admission.New(cfg, view(map[int]wire.LoadRecord{1: marginal}, 1))
	if !c2.Admit() {
		t.Fatal("healthy back-end under threshold should admit")
	}
}
