package loadbalance

import (
	"math/rand"
	"testing"

	"rdmamon/internal/wire"
)

// TestLeastLoadExcludesQuarantined: an excluded back-end never gets
// picked while at least one eligible back-end exists.
func TestLeastLoadExcludesQuarantined(t *testing.T) {
	src := func(b int) (wire.LoadRecord, bool) { return wire.LoadRecord{}, false }
	dead := map[int]bool{2: true}
	w := &WeightedLeastLoad{
		View: View{
			Backends: []int{1, 2, 3},
			Source:   src,
			Rng:      rand.New(rand.NewSource(1)),
			Exclude:  func(b int) bool { return dead[b] },
		},
	}
	picks := map[int]uint64{}
	for i := 0; i < 500; i++ {
		b := w.Pick()
		if b == 2 {
			t.Fatal("picked an excluded back-end")
		}
		picks[b]++
	}
	if picks[1] == 0 || picks[3] == 0 {
		t.Fatalf("eligible back-ends unshared: %v", picks)
	}
	if w.ExcludedPicks != 500 {
		t.Fatalf("ExcludedPicks = %d, want 500", w.ExcludedPicks)
	}
}

// TestLeastLoadAllExcludedFallsBack: with every back-end quarantined
// the policy degrades to uniform rather than returning -1.
func TestLeastLoadAllExcludedFallsBack(t *testing.T) {
	w := &WeightedLeastLoad{
		View: View{
			Backends: []int{1, 2},
			Source:   func(b int) (wire.LoadRecord, bool) { return wire.LoadRecord{}, false },
			Rng:      rand.New(rand.NewSource(1)),
			Exclude:  func(b int) bool { return true },
		},
	}
	seen := map[int]int{}
	for i := 0; i < 200; i++ {
		b := w.Pick()
		if b != 1 && b != 2 {
			t.Fatalf("pick %d outside set", b)
		}
		seen[b]++
	}
	if seen[1] == 0 || seen[2] == 0 {
		t.Fatalf("fallback not uniform: %v", seen)
	}
}

// TestProportionalExcludedGetsZeroShare: a quarantined back-end's
// traffic share drops to exactly zero.
func TestProportionalExcludedGetsZeroShare(t *testing.T) {
	dead := map[int]bool{5: true}
	w := &WeightedProportional{
		View: View{
			Backends: []int{4, 5, 6},
			Source:   func(b int) (wire.LoadRecord, bool) { return wire.LoadRecord{}, true },
			Rng:      rand.New(rand.NewSource(7)),
			Exclude:  func(b int) bool { return dead[b] },
		},
	}
	picks := map[int]uint64{}
	for i := 0; i < 1000; i++ {
		b := w.Pick()
		if b == 5 {
			t.Fatal("proportional dispatched to an excluded back-end")
		}
		picks[b]++
	}
	if picks[4] == 0 || picks[6] == 0 {
		t.Fatalf("eligible back-ends unshared: %v", picks)
	}
	if w.ExcludedPicks != 1000 {
		t.Fatalf("ExcludedPicks = %d, want 1000", w.ExcludedPicks)
	}

	// Re-admit: once Exclude clears, the back-end gets traffic again.
	delete(dead, 5)
	got5 := false
	for i := 0; i < 1000 && !got5; i++ {
		got5 = w.Pick() == 5
	}
	if !got5 {
		t.Fatal("re-admitted back-end never picked")
	}
}

// TestProportionalAllExcludedFallsBack mirrors the least-load case.
func TestProportionalAllExcludedFallsBack(t *testing.T) {
	w := &WeightedProportional{
		View: View{
			Backends: []int{1, 2},
			Source:   func(b int) (wire.LoadRecord, bool) { return wire.LoadRecord{}, true },
			Rng:      rand.New(rand.NewSource(3)),
			Exclude:  func(b int) bool { return true },
		},
	}
	seen := map[int]int{}
	for i := 0; i < 200; i++ {
		seen[w.Pick()]++
	}
	if seen[1] == 0 || seen[2] == 0 {
		t.Fatalf("fallback not uniform: %v", seen)
	}
}

// TestAllExcludedFallbackStaysOnClaimed: with every back-end
// quarantined and a claim filter set, both policies fall back onto the
// claimed back-ends only (-1 when none is held), from a policy-owned
// scratch pool — no allocation per pick, Backends left untouched.
func TestAllExcludedFallbackStaysOnClaimed(t *testing.T) {
	held := map[int]bool{2: true, 4: true}
	src := func(b int) (wire.LoadRecord, bool) { return wire.LoadRecord{}, true }
	all := func(int) bool { return true }
	claimed := func(b int) bool { return held[b] }
	ll := &WeightedLeastLoad{
		View: View{
			Backends: []int{1, 2, 3, 4},
			Source:   src,
			Rng:      rand.New(rand.NewSource(1)),
			Exclude:  all,
			Claimed:  claimed,
		},
	}
	wp := &WeightedProportional{
		View: View{
			Backends: []int{1, 2, 3, 4},
			Source:   src,
			Rng:      rand.New(rand.NewSource(1)),
			Exclude:  all,
			Claimed:  claimed,
		},
	}
	for name, pick := range map[string]func() int{"least-load": ll.Pick, "proportional": wp.Pick} {
		seen := map[int]int{}
		for i := 0; i < 200; i++ {
			seen[pick()]++
		}
		if len(seen) != 2 || seen[2] == 0 || seen[4] == 0 {
			t.Fatalf("%s: fallback picks %v, want a spread over the claimed {2,4} only", name, seen)
		}
		if allocs := testing.AllocsPerRun(100, func() { pick() }); allocs != 0 {
			t.Fatalf("%s: fallback pick allocates %.1f objects/op, want 0", name, allocs)
		}
	}
	for _, backends := range [][]int{ll.Backends, wp.Backends} {
		for i, b := range backends {
			if b != i+1 {
				t.Fatalf("fallback scratch overwrote Backends: %v", backends)
			}
		}
	}
	held = map[int]bool{}
	if b := ll.Pick(); b != -1 {
		t.Fatalf("least-load picked %d with nothing claimed, want -1", b)
	}
	if b := wp.Pick(); b != -1 {
		t.Fatalf("proportional picked %d with nothing claimed, want -1", b)
	}
}
