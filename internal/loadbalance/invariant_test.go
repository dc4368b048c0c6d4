package loadbalance

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rdmamon/internal/core"
	"rdmamon/internal/wire"
)

// Randomized invariants of the dispatch policies: whatever the load
// records and quarantine verdicts look like, (1) an ineligible
// back-end is never selected while any eligible one exists, and (2)
// the degraded handicap only ever moves traffic away from a degraded
// back-end — it is monotone in the penalty and never excludes outright.

// randRecord builds an arbitrary-but-valid load record from fuzz bytes.
func randRecord(rng *rand.Rand) wire.LoadRecord {
	rec := wire.LoadRecord{
		NumCPU:    uint8(1 + rng.Intn(4)),
		NrRunning: uint16(rng.Intn(32)),
		NrTasks:   uint16(rng.Intn(200)),
		Conns:     uint16(rng.Intn(64)),
		MemUsedKB: uint32(rng.Intn(1 << 20)),
	}
	rec.MemTotalKB = rec.MemUsedKB + uint32(rng.Intn(1<<20)) + 1
	for i := 0; i < int(rec.NumCPU); i++ {
		rec.UtilPerMille[i] = uint16(rng.Intn(1001))
	}
	return rec
}

// TestInvariantNeverPickIneligible drives both policies over random
// fleets, loads and quarantine sets: a pick must land on an eligible
// back-end whenever one exists, and inside the fleet regardless.
func TestInvariantNeverPickIneligible(t *testing.T) {
	f := func(seed int64, nRaw, deadMask uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw%7) // 2..8 back-ends
		backends := make([]int, n)
		recs := make(map[int]wire.LoadRecord, n)
		dead := make(map[int]bool, n)
		anyAlive := false
		for i := range backends {
			b := i + 1
			backends[i] = b
			recs[b] = randRecord(rng)
			dead[b] = deadMask&(1<<uint(i)) != 0
			anyAlive = anyAlive || !dead[b]
		}
		src := func(b int) (wire.LoadRecord, bool) { return recs[b], true }
		excl := func(b int) bool { return dead[b] }
		pols := []Policy{
			&WeightedLeastLoad{
				View: View{
					Backends: backends,
					Weights:  core.DefaultWeights(),
					Source:   src,
					Rng:      rng,
					Exclude:  excl,
				},
			},
			&WeightedProportional{
				View: View{
					Backends: backends,
					Weights:  core.DefaultWeights(),
					Source:   src,
					Rng:      rng,
					Exclude:  excl,
				},
			},
		}
		for _, pol := range pols {
			for i := 0; i < 50; i++ {
				b := pol.Pick()
				if b < 1 || b > n {
					return false // outside the fleet
				}
				if anyAlive && dead[b] {
					return false // quarantined back-end got traffic
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestInvariantDegradedStrictlyAvoided: with Rng=nil (deterministic
// tie-breaks) and otherwise identical back-ends, least-load must never
// choose the degraded one — the penalty breaks the tie against it.
func TestInvariantDegradedStrictlyAvoided(t *testing.T) {
	rec := wire.LoadRecord{NumCPU: 1, Conns: 4}
	w := &WeightedLeastLoad{
		View: View{
			Backends: []int{1, 2, 3},
			Weights:  core.DefaultWeights(),
			Source:   func(int) (wire.LoadRecord, bool) { return rec, true },
			Degraded: func(b int) bool { return b == 2 },
		},
	}
	for i := 0; i < 100; i++ {
		if w.Pick() == 2 {
			t.Fatal("degraded back-end won a tie")
		}
	}
	if w.DegradedPicks != 0 {
		t.Fatalf("DegradedPicks = %d", w.DegradedPicks)
	}
}

// TestInvariantDegradedPenaltyMonotone: under proportional dispatch
// the penalty never raises a back-end's traffic share (degraded gets
// less than the same back-end healthy, and less than the fair share),
// and never zeroes it — degraded means handicapped, not quarantined.
func TestInvariantDegradedPenaltyMonotone(t *testing.T) {
	const picks = 20000
	healthy := degradedShare(func(int) bool { return false }, picks)
	share := degradedShare(func(b int) bool { return b == 3 }, picks)
	if share == 0 {
		t.Fatal("the penalty starved the degraded back-end outright")
	}
	if share > healthy+0.01 { // 1% slack for sampling noise
		t.Fatalf("degraded share %.3f rose above healthy share %.3f", share, healthy)
	}
	if fair := 1.0 / 4; share >= fair {
		t.Fatalf("degraded share %.3f not below fair share %.3f", share, fair)
	}
}

// degradedShare returns back-end 3's share of picks among four equally
// loaded back-ends under proportional dispatch with the given verdict.
func degradedShare(degraded func(int) bool, picks int) float64 {
	rec := wire.LoadRecord{NumCPU: 1, Conns: 8}
	w := &WeightedProportional{
		View: View{
			Backends: []int{1, 2, 3, 4},
			Weights:  core.DefaultWeights(),
			Source:   func(int) (wire.LoadRecord, bool) { return rec, true },
			Rng:      rand.New(rand.NewSource(99)),
			Degraded: degraded,
		},
	}
	hit := 0
	for i := 0; i < picks; i++ {
		if w.Pick() == 3 {
			hit++
		}
	}
	return float64(hit) / float64(picks)
}

// TestInvariantAllExcludedStaysInFleet: even with every back-end
// quarantined both policies keep dispatching inside the fleet (uniform
// fallback) rather than panicking or fixating.
func TestInvariantAllExcludedStaysInFleet(t *testing.T) {
	backends := []int{7, 8, 9}
	excl := func(int) bool { return true }
	src := func(int) (wire.LoadRecord, bool) { return wire.LoadRecord{}, false }
	for _, pol := range []Policy{
		&WeightedLeastLoad{
			View: View{
				Backends: backends,
				Source:   src,
				Rng:      rand.New(rand.NewSource(3)),
				Exclude:  excl,
			},
		},
		&WeightedProportional{
			View: View{
				Backends: backends,
				Source:   src,
				Rng:      rand.New(rand.NewSource(3)),
				Exclude:  excl,
			},
		},
	} {
		seen := map[int]int{}
		for i := 0; i < 300; i++ {
			b := pol.Pick()
			if b != 7 && b != 8 && b != 9 {
				t.Fatalf("%T: pick %d outside fleet", pol, b)
			}
			seen[b]++
		}
		if len(seen) != 3 {
			t.Fatalf("%T: fallback fixated: %v", pol, seen)
		}
	}
}
