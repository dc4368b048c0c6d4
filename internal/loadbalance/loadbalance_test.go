package loadbalance

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rdmamon/internal/core"
	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

func TestRoundRobinCycles(t *testing.T) {
	rr := &RoundRobin{Backends: []int{1, 2, 3}}
	got := []int{rr.Pick(), rr.Pick(), rr.Pick(), rr.Pick()}
	want := []int{1, 2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("picks = %v, want %v", got, want)
		}
	}
}

func TestRandomStaysInSet(t *testing.T) {
	r := &Random{Backends: []int{4, 7}, Rng: rand.New(rand.NewSource(1))}
	seen := map[int]int{}
	for i := 0; i < 1000; i++ {
		b := r.Pick()
		if b != 4 && b != 7 {
			t.Fatalf("pick %d outside set", b)
		}
		seen[b]++
	}
	if seen[4] == 0 || seen[7] == 0 {
		t.Fatal("random never picked one backend")
	}
}

func recWithUtil(node int, util int) wire.LoadRecord {
	r := wire.LoadRecord{NumCPU: 2, NodeID: uint16(node)}
	r.UtilPerMille[0] = uint16(util)
	r.UtilPerMille[1] = uint16(util)
	return r
}

// recSaturated is loaded on every index component, not just CPU.
func recSaturated(node int) wire.LoadRecord {
	r := recWithUtil(node, 1000)
	r.NrRunning = 32
	r.Conns = 64
	r.MemUsedKB = 900 << 10
	r.MemTotalKB = 1 << 20
	return r
}

func TestWeightedLeastLoadPicksLeastLoaded(t *testing.T) {
	loads := map[int]wire.LoadRecord{
		1: recWithUtil(1, 900),
		2: recWithUtil(2, 100),
		3: recWithUtil(3, 500),
	}
	w := &WeightedLeastLoad{
		View: View{
			Backends: []int{1, 2, 3},
			Weights:  core.DefaultWeights(),
			Source:   func(b int) (wire.LoadRecord, bool) { r, ok := loads[b]; return r, ok },
			Rng:      rand.New(rand.NewSource(1)),
		},
	}
	picks := map[int]uint64{}
	for i := 0; i < 10; i++ {
		b := w.Pick()
		if b != 2 {
			t.Fatalf("pick = %d, want 2 (least loaded)", b)
		}
		picks[b]++
	}
	if picks[2] != 10 {
		t.Fatalf("picks accounting = %v", picks)
	}
}

func TestWeightedLeastLoadMissingRecordOptimistic(t *testing.T) {
	// A backend with no record yet scores zero: preferred over a
	// loaded one.
	w := &WeightedLeastLoad{
		View: View{
			Backends: []int{1, 2},
			Weights:  core.DefaultWeights(),
			Source: func(b int) (wire.LoadRecord, bool) {
				if b == 1 {
					return recWithUtil(1, 800), true
				}
				return wire.LoadRecord{}, false
			},
			Rng: rand.New(rand.NewSource(1)),
		},
	}
	if b := w.Pick(); b != 2 {
		t.Fatalf("pick = %d, want the unknown backend 2", b)
	}
}

func TestWeightedLeastLoadTieBreakSpreads(t *testing.T) {
	// All backends identical: random tie-break must spread picks, not
	// herd onto the first.
	w := &WeightedLeastLoad{
		View: View{
			Backends: []int{1, 2, 3, 4},
			Weights:  core.DefaultWeights(),
			Source:   func(b int) (wire.LoadRecord, bool) { return recWithUtil(b, 500), true },
			Rng:      rand.New(rand.NewSource(2)),
		},
	}
	picks := map[int]uint64{}
	for i := 0; i < 4000; i++ {
		picks[w.Pick()]++
	}
	for _, b := range w.Backends {
		if picks[b] < 700 || picks[b] > 1200 {
			t.Fatalf("tie-break spread %v, want each of 4 near 1000 of 4000", picks)
		}
	}
}

// Property: whatever the load records, the weighted policy returns a
// member of its backend set.
func TestQuickWeightedPickInSet(t *testing.T) {
	f := func(utils []uint16, seed int64) bool {
		if len(utils) == 0 {
			return true
		}
		backends := make([]int, len(utils))
		recs := make(map[int]wire.LoadRecord)
		for i, u := range utils {
			backends[i] = i + 1
			recs[i+1] = recWithUtil(i+1, int(u%1001))
		}
		w := &WeightedLeastLoad{
			View: View{
				Backends: backends,
				Weights:  core.DefaultWeights(),
				Source:   func(b int) (wire.LoadRecord, bool) { r, ok := recs[b]; return r, ok },
				Rng:      rand.New(rand.NewSource(seed)),
			},
		}
		b := w.Pick()
		return b >= 1 && b <= len(utils)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProportionalSpreadsByWeight(t *testing.T) {
	// Backend 1 looks idle, backend 2 saturated: with gamma=2 the idle
	// one should receive the overwhelming share but not 100%.
	loads := map[int]wire.LoadRecord{
		1: recWithUtil(1, 50),
		2: recSaturated(2),
	}
	w := &WeightedProportional{
		View: View{
			Backends: []int{1, 2},
			Weights:  core.DefaultWeights(),
			Source:   func(b int) (wire.LoadRecord, bool) { r, ok := loads[b]; return r, ok },
			Rng:      rand.New(rand.NewSource(3)),
		},
	}
	picks := map[int]uint64{}
	for i := 0; i < 10000; i++ {
		picks[w.Pick()]++
	}
	if picks[1] < 8000 {
		t.Fatalf("idle backend got %d of 10000, want the lion's share", picks[1])
	}
	if picks[2] == 0 {
		t.Fatal("saturated backend must keep a trickle (weight floor)")
	}
}

func TestProportionalGammaSharpens(t *testing.T) {
	loads := map[int]wire.LoadRecord{
		1: recWithUtil(1, 300),
		2: recWithUtil(2, 700),
	}
	share := func(gamma float64) float64 {
		w := &WeightedProportional{
			View: View{
				Backends: []int{1, 2},
				Weights:  core.DefaultWeights(),
				Source:   func(b int) (wire.LoadRecord, bool) { r, ok := loads[b]; return r, ok },
				Rng:      rand.New(rand.NewSource(4)),
			},
			Gamma: gamma,
		}
		picks := map[int]uint64{}
		for i := 0; i < 20000; i++ {
			picks[w.Pick()]++
		}
		return float64(picks[1]) / 20000
	}
	if share(4) <= share(1) {
		t.Fatalf("higher gamma should favor the lighter backend more: g1=%.3f g4=%.3f",
			share(1), share(4))
	}
}

func TestProportionalStalenessDecaysToUniform(t *testing.T) {
	// One backend reports (stale) saturation; with a very old record
	// and the discount enabled, traffic should approach uniform.
	mkAged := func(age sim.Time) AgedSource {
		return func(b int) (wire.LoadRecord, sim.Time, bool) {
			if b == 2 {
				return recSaturated(2), age, true
			}
			return recWithUtil(1, 0), age, true
		}
	}
	share2 := func(age sim.Time) float64 {
		w := &WeightedProportional{
			View: View{
				Backends: []int{1, 2},
				Weights:  core.DefaultWeights(),
				Rng:      rand.New(rand.NewSource(5)),
			},
			Aged:       mkAged(age),
			StaleAfter: 100 * sim.Millisecond,
		}
		picks := map[int]uint64{}
		for i := 0; i < 20000; i++ {
			picks[w.Pick()]++
		}
		return float64(picks[2]) / 20000
	}
	fresh := share2(0)
	stale := share2(2 * sim.Second)
	if fresh > 0.2 {
		t.Fatalf("fresh saturation should divert traffic: share=%.3f", fresh)
	}
	if stale < 0.4 || stale > 0.6 {
		t.Fatalf("very stale records should decay to ~uniform: share=%.3f", stale)
	}
}

func TestProportionalNoRecordsUniform(t *testing.T) {
	w := &WeightedProportional{
		View: View{
			Backends: []int{1, 2, 3},
			Weights:  core.DefaultWeights(),
			Source:   func(int) (wire.LoadRecord, bool) { return wire.LoadRecord{}, false },
			Rng:      rand.New(rand.NewSource(6)),
		},
	}
	picks := map[int]uint64{}
	for i := 0; i < 9000; i++ {
		picks[w.Pick()]++
	}
	for _, b := range w.Backends {
		if picks[b] < 2500 {
			t.Fatalf("no-record spread uneven: %v", picks)
		}
	}
}
