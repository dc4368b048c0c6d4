package scenario

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"rdmamon/internal/sim"
)

// TestPropExpandWeightsSum: for any positive finite weight vector the
// expansion sums to exactly n with no negative counts — back-ends are
// never lost or invented by rounding.
func TestPropExpandWeightsSum(t *testing.T) {
	prop := func(raw []float64, size uint8) bool {
		if len(raw) == 0 {
			raw = []float64{1}
		}
		if len(raw) > maxTemplate {
			raw = raw[:maxTemplate]
		}
		weights := make([]float64, len(raw))
		for i, w := range raw {
			w = math.Abs(w)
			if !(w > 0) || math.IsInf(w, 0) {
				w = 1
			}
			weights[i] = math.Mod(w, 1e6) + 1e-3
		}
		n := int(size)%512 + 1
		counts := ExpandWeights(weights, n)
		sum := 0
		for _, c := range counts {
			if c < 0 {
				return false
			}
			sum += c
		}
		return sum == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPropHeteroFleetCovers: compiling any weighted template split
// yields one spec per back-end and contiguous, non-overlapping ranges.
func TestPropHeteroFleetCovers(t *testing.T) {
	prop := func(wFast, wSlow uint16, size uint8) bool {
		backends := int(size)%64 + 2
		fast := float64(wFast%1000) + 1
		slow := float64(wSlow%1000) + 1
		s := &Scenario{
			Name: "p", Horizon: sim.Second,
			Fleet: Fleet{Backends: backends, Templates: []Template{
				{Name: "fast", Weight: fast},
				{Name: "slow", Weight: slow},
			}},
		}
		cp, err := s.Compile(false)
		if err != nil {
			return false
		}
		if len(cp.Specs) != backends || cp.Counts[0]+cp.Counts[1] != backends {
			return false
		}
		lo := 1
		for j := range cp.Ranges {
			if cp.Counts[j] == 0 {
				continue
			}
			if cp.Ranges[j][0] != lo || cp.Ranges[j][1] != lo+cp.Counts[j]-1 {
				return false
			}
			lo += cp.Counts[j]
		}
		return lo == backends+1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropStaggerOffsets: no staggered node ever starts before its
// deterministic offset (i-1)*Offset, and jitter stays within bound.
func TestPropStaggerOffsets(t *testing.T) {
	prop := func(seed int64, offU, jitU uint16) bool {
		off := sim.Time(offU%200+1) * sim.Millisecond
		jit := sim.Time(jitU%100) * sim.Millisecond
		s := &Scenario{
			Name: "p", Horizon: 600 * sim.Second,
			Fleet:   Fleet{Backends: 6},
			Stagger: &Stagger{Offset: off, Jitter: jit},
		}
		cp, err := s.Compile(false)
		if err != nil {
			return false
		}
		plan := cp.Plan(seed)
		for _, cr := range plan.Crashes {
			if cr.At != 0 {
				return false
			}
			floor := sim.Time(cr.Node-1) * off
			if cr.RestartAt < floor || cr.RestartAt >= floor+jit+1 {
				return false
			}
		}
		// Node 1 with zero jitter starts immediately: no crash window.
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropPlanReplay: the same (scenario, seed) always compiles to the
// same fault plan — plans are pure functions of their inputs.
func TestPropPlanReplay(t *testing.T) {
	s := &Scenario{
		Name: "p", Horizon: 10 * sim.Second,
		Fleet: Fleet{Backends: 8, Templates: []Template{
			{Name: "fast", Weight: 3},
			{Name: "slow", Weight: 1},
		}},
		Stagger: &Stagger{Offset: 50 * sim.Millisecond, Jitter: 20 * sim.Millisecond},
		Stress:  &Stress{Crashes: 2, LinkFaults: 1, Partitions: 1, MRInvalidations: 1},
		Events: []Event{
			{At: 2 * sim.Second, Action: "freeze", Pick: "weighted", Duration: 300 * sim.Millisecond},
			{At: 3 * sim.Second, Action: "crash", Pick: "random", Duration: 500 * sim.Millisecond},
			{At: 4 * sim.Second, Action: "link", Pick: "weighted", Template: "slow", Duration: 1 * sim.Second, Drop: 0.3},
			{At: 5 * sim.Second, Action: "mr-invalidate", Node: 2},
		},
	}
	cp, err := s.Compile(false)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64) bool {
		a, b := cp.Plan(seed), cp.Plan(seed)
		return reflect.DeepEqual(a, b) && digestPlan(cp.Plan(seed)) == digestPlan(cp.Plan(seed))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropEventVictimsInFleet: scripted events always land on a real
// back-end, and template-filtered picks stay inside the template's
// range.
func TestPropEventVictimsInFleet(t *testing.T) {
	s := &Scenario{
		Name: "p", Horizon: 10 * sim.Second,
		Fleet: Fleet{Backends: 10, Templates: []Template{
			{Name: "fast", Weight: 7},
			{Name: "slow", Weight: 3},
		}},
		Events: []Event{
			{At: 1 * sim.Second, Action: "crash", Pick: "weighted", Duration: 200 * sim.Millisecond},
			{At: 2 * sim.Second, Action: "freeze", Pick: "random", Template: "slow", Duration: 200 * sim.Millisecond},
		},
	}
	cp, err := s.Compile(false)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64) bool {
		plan := cp.Plan(seed)
		for _, cr := range plan.Crashes {
			if cr.Node < 1 || cr.Node > 10 {
				return false
			}
		}
		for _, fr := range plan.Freezes {
			// slow is nodes 8..10
			if fr.Node < 8 || fr.Node > 10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropEventOrderEnforced: any script with a time inversion is
// rejected by validation.
func TestPropEventOrderEnforced(t *testing.T) {
	prop := func(aU, bU uint16) bool {
		a := sim.Time(aU%5000) * sim.Millisecond
		b := sim.Time(bU%5000) * sim.Millisecond
		s := &Scenario{
			Name: "p", Horizon: 600 * sim.Second,
			Fleet: Fleet{Backends: 4},
			Events: []Event{
				{At: a, Action: "crash", Node: 1, Duration: 100 * sim.Millisecond},
				{At: b, Action: "crash", Node: 2, Duration: 100 * sim.Millisecond},
			},
		}
		err := s.Validate()
		if b < a {
			return err != nil
		}
		return err == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
