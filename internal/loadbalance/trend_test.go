package loadbalance

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rdmamon/internal/core"
	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

// Randomized invariants of trend-aware dispatch: whatever the slopes
// claim, (1) eligibility is untouched, (2) with the trend term off or
// uniform the policy degrades to the level-only one, and (3) the clamp
// bounds how much a slope can override the level — a back-end far
// enough ahead on level wins regardless of every slope.

// utilWeights scores purely on CPU so tests control the index exactly:
// index = UtilPerMille[0]/1000 with one CPU.
func utilWeights() core.Weights { return core.Weights{CPU: 1} }

func utilRec(perMille int) wire.LoadRecord {
	r := wire.LoadRecord{NumCPU: 1}
	r.UtilPerMille[0] = uint16(perMille)
	return r
}

func TestInvariantTrendNeverPicksIneligible(t *testing.T) {
	f := func(seed int64, nRaw, deadMask uint8, slopeRaw []int8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw%7)
		backends := make([]int, n)
		recs := make(map[int]wire.LoadRecord, n)
		slope := make(map[int]float64, n)
		dead := make(map[int]bool, n)
		anyAlive := false
		for i := range backends {
			b := i + 1
			backends[i] = b
			recs[b] = randRecord(rng)
			if len(slopeRaw) > 0 {
				// Slopes way beyond the clamp, both signs.
				slope[b] = float64(slopeRaw[i%len(slopeRaw)])
			}
			dead[b] = deadMask&(1<<uint(i)) != 0
			anyAlive = anyAlive || !dead[b]
		}
		w := &WeightedLeastLoad{
			View: View{
				Backends: backends,
				Weights:  core.DefaultWeights(),
				Source:   func(b int) (wire.LoadRecord, bool) { return recs[b], true },
				Rng:      rng,
				Exclude:  func(b int) bool { return dead[b] },
			},
			Slope:        func(b int) (float64, bool) { return slope[b], true },
			TrendHorizon: 50 * sim.Millisecond,
		}
		for i := 0; i < 50; i++ {
			b := w.Pick()
			if b < 1 || b > n {
				return false
			}
			if anyAlive && dead[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestInvariantTrendOffEqualsLevelOnly: a nil Slope, a zero horizon,
// and a uniform slope across the fleet must all reproduce the
// level-only policy's pick sequence exactly (equal projections degrade
// to the level comparison, including its tie-breaking).
func TestInvariantTrendOffEqualsLevelOnly(t *testing.T) {
	f := func(seed int64, nRaw uint8, flat int8) bool {
		n := 2 + int(nRaw%7)
		backends := make([]int, n)
		recs := make(map[int]wire.LoadRecord, n)
		rng := rand.New(rand.NewSource(seed))
		for i := range backends {
			backends[i] = i + 1
			recs[i+1] = randRecord(rng)
		}
		src := func(b int) (wire.LoadRecord, bool) { return recs[b], true }
		mk := func(slope func(int) (float64, bool), horizon sim.Time) *WeightedLeastLoad {
			return &WeightedLeastLoad{
				View: View{
					Backends: backends,
					Weights:  core.DefaultWeights(),
					Source:   src,
					Rng:      rand.New(rand.NewSource(seed + 1)),
				},
				Slope:        slope,
				TrendHorizon: horizon,
			}
		}
		level := mk(nil, 50*sim.Millisecond)
		zeroH := mk(func(int) (float64, bool) { return 99, true }, 0)
		uniform := mk(func(int) (float64, bool) { return float64(flat), true },
			50*sim.Millisecond)
		for i := 0; i < 50; i++ {
			want := level.Pick()
			if zeroH.Pick() != want || uniform.Pick() != want {
				return false
			}
		}
		return uniform.TrendPicks == 0 && zeroH.TrendPicks == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestInvariantTrendBoundedStarvation: the clamp caps the projection,
// so a back-end whose level undercuts every other's by more than
// 2×DefaultTrendClamp is picked no matter what any slope reports.
func TestInvariantTrendBoundedStarvation(t *testing.T) {
	f := func(seed int64, slopeRaw []int8) bool {
		rng := rand.New(rand.NewSource(seed))
		// Back-end 1 at 10% CPU; the rest above 10% + 2×clamp + margin.
		backends := []int{1, 2, 3, 4, 5}
		recs := map[int]wire.LoadRecord{1: utilRec(100)}
		for b := 2; b <= 5; b++ {
			recs[b] = utilRec(550 + rng.Intn(400))
		}
		slope := func(b int) (float64, bool) {
			if len(slopeRaw) == 0 {
				return 0, false
			}
			return float64(slopeRaw[b%len(slopeRaw)]) * 100, true
		}
		w := &WeightedLeastLoad{
			View: View{
				Backends: backends,
				Weights:  utilWeights(),
				Source:   func(b int) (wire.LoadRecord, bool) { return recs[b], true },
				Rng:      rng,
			},
			Slope:        slope,
			TrendHorizon: sim.Second,
		}
		for i := 0; i < 30; i++ {
			if w.Pick() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTrendSteersOffRampingBackend: equal levels, one back-end ramping
// up and one draining — the policy must route to the draining one, and
// account the reordering in TrendPicks.
func TestTrendSteersOffRampingBackend(t *testing.T) {
	slopes := map[int]float64{1: +2.0, 2: -2.0}
	w := &WeightedLeastLoad{
		View: View{
			Backends: []int{1, 2},
			Weights:  utilWeights(),
			Source:   func(int) (wire.LoadRecord, bool) { return utilRec(500), true },
		},
		Slope: func(b int) (float64, bool) { return slopes[b], true },
		// One sweep of lookahead; slope×horizon saturates the clamp.
		TrendHorizon: 50 * sim.Millisecond,
	}
	for i := 0; i < 20; i++ {
		if got := w.Pick(); got != 2 {
			t.Fatalf("pick = %d, want the draining back-end 2", got)
		}
	}
	if w.TrendPicks != 20 {
		t.Fatalf("TrendPicks = %d, want 20", w.TrendPicks)
	}
}
