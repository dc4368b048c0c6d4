package faults

import (
	"reflect"
	"testing"

	"rdmamon/internal/sim"
)

// TestRandomPlanDeterministic: same (seed, cfg) must yield a deeply
// identical plan — the chaos harness's bit-identical replay property
// starts at plan generation — and different seeds must actually explore
// different plans.
func TestRandomPlanDeterministic(t *testing.T) {
	cfg := ChaosConfig{Backends: 8, Horizon: 20 * sim.Second}
	a := RandomPlan(42, cfg)
	b := RandomPlan(42, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", a, b)
	}
	if reflect.DeepEqual(a, RandomPlan(43, cfg)) {
		t.Fatal("seeds 42 and 43 produced identical plans")
	}
}

// TestRandomPlanBounds fuzzes the generator across many seeds and
// checks every structural promise RandomPlan documents: counts, window
// placement inside the settle deadline, distinct crash victims, MR
// invalidations disjoint from crashed nodes, forward-only link faults.
func TestRandomPlanBounds(t *testing.T) {
	cfg := ChaosConfig{Backends: 8, Horizon: 20 * sim.Second}
	h := cfg.Horizon
	for seed := int64(0); seed < 200; seed++ {
		p := RandomPlan(seed, cfg)
		if len(p.Crashes) != 2 || len(p.Links) != 2 || len(p.Partitions) != 1 || len(p.MRInvalidations) != 2 {
			t.Fatalf("seed %d: plan counts %d/%d/%d/%d, want defaults 2/2/1/2",
				seed, len(p.Crashes), len(p.Links), len(p.Partitions), len(p.MRInvalidations))
		}

		crashed := make(map[int]bool)
		for _, cr := range p.Crashes {
			if cr.Node < 1 || cr.Node > cfg.Backends {
				t.Fatalf("seed %d: crash node %d out of range", seed, cr.Node)
			}
			if crashed[cr.Node] {
				t.Fatalf("seed %d: node %d crashes twice", seed, cr.Node)
			}
			crashed[cr.Node] = true
			if cr.RestartAt <= cr.At {
				t.Fatalf("seed %d: restart %v not after crash %v", seed, cr.RestartAt, cr.At)
			}
			if cr.RestartAt > sim.Time(0.65*float64(h)) {
				t.Fatalf("seed %d: restart %v past the settle deadline", seed, cr.RestartAt)
			}
		}

		for _, lf := range p.Links {
			if lf.From != 0 {
				t.Fatalf("seed %d: link fault from node %d, want front-end only", seed, lf.From)
			}
			if lf.To < 1 || lf.To > cfg.Backends {
				t.Fatalf("seed %d: link fault to node %d out of range", seed, lf.To)
			}
			if lf.End <= lf.Start || lf.End > sim.Time(0.75*float64(h)) {
				t.Fatalf("seed %d: link window [%v, %v] malformed or past 0.75H", seed, lf.Start, lf.End)
			}
			if lf.Drop < 0.20 || lf.Drop > 0.50 {
				t.Fatalf("seed %d: drop rate %v outside [0.20, 0.50]", seed, lf.Drop)
			}
			if lf.DelayMax < lf.DelayMin {
				t.Fatalf("seed %d: delay range [%v, %v] inverted", seed, lf.DelayMin, lf.DelayMax)
			}
		}

		for _, pa := range p.Partitions {
			if len(pa.A) != 1 || pa.A[0] != 0 {
				t.Fatalf("seed %d: partition side A = %v, want front-end only", seed, pa.A)
			}
			if len(pa.B) == 0 || len(pa.B) > max(1, cfg.Backends/4) {
				t.Fatalf("seed %d: partition side B size %d", seed, len(pa.B))
			}
			if pa.End <= pa.Start || pa.End > sim.Time(0.70*float64(h)) {
				t.Fatalf("seed %d: partition window [%v, %v] malformed or past 0.70H", seed, pa.Start, pa.End)
			}
		}

		for _, mi := range p.MRInvalidations {
			if mi.Node < 1 || mi.Node > cfg.Backends {
				t.Fatalf("seed %d: MR invalidation on node %d out of range", seed, mi.Node)
			}
			if crashed[mi.Node] {
				t.Fatalf("seed %d: MR invalidation on crashing node %d", seed, mi.Node)
			}
			if mi.At > sim.Time(0.50*float64(h)) {
				t.Fatalf("seed %d: MR invalidation at %v past 0.50H", seed, mi.At)
			}
		}
	}
}

// TestRandomPlanFrontEndFaults checks the HA extension: enabling
// front-end faults leaves the back-end portion of the plan bit-identical
// (the FE draws happen strictly after every pre-existing draw), and the
// appended faults hit distinct replicas in staggered windows so a
// standby always survives to take the lease.
func TestRandomPlanFrontEndFaults(t *testing.T) {
	base := ChaosConfig{Backends: 8, Horizon: 20 * sim.Second}
	ha := base
	ha.FrontEnds = []int{0, 9, 10}
	ha.Witness = 11
	h := ha.Horizon

	for seed := int64(0); seed < 200; seed++ {
		old := RandomPlan(seed, base)
		p := RandomPlan(seed, ha)

		// Back-end faults must be untouched — historical plans replay
		// bit-identically under the extended config schema.
		if !reflect.DeepEqual(old.Crashes, p.Crashes[:len(old.Crashes)]) ||
			!reflect.DeepEqual(old.Links, p.Links) ||
			!reflect.DeepEqual(old.Partitions, p.Partitions[:len(old.Partitions)]) ||
			!reflect.DeepEqual(old.MRInvalidations, p.MRInvalidations) {
			t.Fatalf("seed %d: enabling front-end faults perturbed the back-end plan", seed)
		}
		if len(old.Freezes) != 0 {
			t.Fatalf("seed %d: non-HA plan has freezes", seed)
		}

		feCrashes := p.Crashes[len(old.Crashes):]
		fePartitions := p.Partitions[len(old.Partitions):]
		if len(feCrashes) != 1 || len(p.Freezes) != 1 || len(fePartitions) != 1 {
			t.Fatalf("seed %d: FE fault counts %d/%d/%d, want defaults 1/1/1",
				seed, len(feCrashes), len(p.Freezes), len(fePartitions))
		}

		isFE := func(n int) bool { return n == 0 || n == 9 || n == 10 }
		victims := make(map[int]bool)
		for _, cr := range feCrashes {
			if !isFE(cr.Node) {
				t.Fatalf("seed %d: FE crash on non-replica node %d", seed, cr.Node)
			}
			victims[cr.Node] = true
			if cr.At < sim.Time(0.10*float64(h)) || cr.RestartAt > sim.Time(0.46*float64(h)) {
				t.Fatalf("seed %d: FE crash window [%v, %v] outside its phase", seed, cr.At, cr.RestartAt)
			}
		}
		for _, fz := range p.Freezes {
			if !isFE(fz.Node) || victims[fz.Node] {
				t.Fatalf("seed %d: FE freeze victim %d invalid or repeated", seed, fz.Node)
			}
			victims[fz.Node] = true
			if fz.At < sim.Time(0.36*float64(h)) || fz.Until > sim.Time(0.62*float64(h)) {
				t.Fatalf("seed %d: FE freeze window [%v, %v] outside its phase", seed, fz.At, fz.Until)
			}
		}
		for _, pa := range fePartitions {
			if len(pa.A) != 1 || !isFE(pa.A[0]) || victims[pa.A[0]] {
				t.Fatalf("seed %d: FE partition side A %v invalid or repeated victim", seed, pa.A)
			}
			if len(pa.B) != 1 || pa.B[0] != 11 {
				t.Fatalf("seed %d: FE partition side B %v, want witness only", seed, pa.B)
			}
			if pa.Start < sim.Time(0.56*float64(h)) || pa.End > sim.Time(0.80*float64(h)) {
				t.Fatalf("seed %d: FE partition window [%v, %v] outside its phase", seed, pa.Start, pa.End)
			}
		}
	}
}

// TestRandomPlanCrashesCapped: asking for more crashes than back-ends
// must clamp, not panic or repeat victims.
func TestRandomPlanCrashesCapped(t *testing.T) {
	p := RandomPlan(7, ChaosConfig{Backends: 3, Horizon: 10 * sim.Second, Crashes: 10})
	if len(p.Crashes) != 3 {
		t.Fatalf("crashes = %d, want capped at 3 back-ends", len(p.Crashes))
	}
	seen := make(map[int]bool)
	for _, cr := range p.Crashes {
		if seen[cr.Node] {
			t.Fatalf("node %d crashes twice", cr.Node)
		}
		seen[cr.Node] = true
	}
}
