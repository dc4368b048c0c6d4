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
			&WeightedLeastLoad{Backends: backends, Weights: core.DefaultWeights(),
				Source: src, Rng: rng, Exclude: excl},
			&WeightedProportional{Backends: backends, Weights: core.DefaultWeights(),
				Source: src, Rng: rng, Exclude: excl},
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
// choose the degraded one — any positive penalty breaks the tie
// against it.
func TestInvariantDegradedStrictlyAvoided(t *testing.T) {
	rec := wire.LoadRecord{NumCPU: 1, Conns: 4}
	for _, penalty := range []float64{0, 0.01, 0.05, 0.5} {
		w := &WeightedLeastLoad{
			Backends:        []int{1, 2, 3},
			Weights:         core.DefaultWeights(),
			Source:          func(int) (wire.LoadRecord, bool) { return rec, true },
			Degraded:        func(b int) bool { return b == 2 },
			DegradedPenalty: penalty, // zero resolves to the default
		}
		for i := 0; i < 100; i++ {
			if w.Pick() == 2 {
				t.Fatalf("penalty %v: degraded back-end won a tie", penalty)
			}
		}
		if w.DegradedPicks != 0 {
			t.Fatalf("penalty %v: DegradedPicks = %d", penalty, w.DegradedPicks)
		}
	}
}

// degradedShare measures the fraction of proportional picks landing on
// the (single) degraded back-end under a given penalty.
func degradedShare(penalty float64, picks int) float64 {
	rec := wire.LoadRecord{NumCPU: 1, Conns: 8}
	w := &WeightedProportional{
		Backends:        []int{1, 2, 3, 4},
		Weights:         core.DefaultWeights(),
		Source:          func(int) (wire.LoadRecord, bool) { return rec, true },
		Rng:             rand.New(rand.NewSource(99)),
		Degraded:        func(b int) bool { return b == 3 },
		DegradedPenalty: penalty,
	}
	hit := 0
	for i := 0; i < picks; i++ {
		if w.Pick() == 3 {
			hit++
		}
	}
	return float64(hit) / float64(picks)
}

// TestInvariantDegradedPenaltyMonotone: raising the penalty never
// raises the degraded back-end's traffic share, and even a large
// penalty never zeroes it — degraded means handicapped, not
// quarantined.
func TestInvariantDegradedPenaltyMonotone(t *testing.T) {
	const picks = 20000
	penalties := []float64{0.01, 0.05, 0.2, 0.6}
	prev := 1.0
	for _, p := range penalties {
		share := degradedShare(p, picks)
		if share == 0 {
			t.Fatalf("penalty %v starved the degraded back-end outright", p)
		}
		if share > prev+0.01 { // 1% slack for sampling noise
			t.Fatalf("penalty %v share %.3f rose above %.3f", p, share, prev)
		}
		prev = share
	}
	if fair := 1.0 / 4; prev > fair {
		t.Fatalf("max penalty share %.3f not below fair share %.3f", prev, fair)
	}
}

// TestInvariantAllExcludedStaysInFleet: even with every back-end
// quarantined both policies keep dispatching inside the fleet (uniform
// fallback) rather than panicking or fixating.
func TestInvariantAllExcludedStaysInFleet(t *testing.T) {
	backends := []int{7, 8, 9}
	excl := func(int) bool { return true }
	src := func(int) (wire.LoadRecord, bool) { return wire.LoadRecord{}, false }
	for _, pol := range []Policy{
		&WeightedLeastLoad{Backends: backends, Source: src,
			Rng: rand.New(rand.NewSource(3)), Exclude: excl},
		&WeightedProportional{Backends: backends, Source: src,
			Rng: rand.New(rand.NewSource(3)), Exclude: excl},
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
