package loadbalance

import (
	"math/rand"
	"slices"
	"testing"

	"rdmamon/internal/core"
	"rdmamon/internal/wire"
)

// memoFleet is a record table kept to the monitor's contract: set moves
// a back-end's update count together with its record. calls counts
// Source reads.
type memoFleet struct {
	recs  map[int]wire.LoadRecord
	n     map[int]uint64
	calls int
}

func newMemoFleet() *memoFleet {
	return &memoFleet{recs: map[int]wire.LoadRecord{}, n: map[int]uint64{}}
}

func (f *memoFleet) set(b int, r wire.LoadRecord) { f.recs[b], f.n[b] = r, f.n[b]+1 }

func (f *memoFleet) source(b int) (wire.LoadRecord, bool) {
	f.calls++
	r, ok := f.recs[b]
	return r, ok
}

func (f *memoFleet) updates(b int) uint64 { return f.n[b] }

// memoPair returns a least-load policy that memoizes scores through
// f.updates and its twin that scores every candidate on every pick,
// with identically seeded Rngs.
func memoPair(f *memoFleet, backends []int) (memo, twin *WeightedLeastLoad) {
	mk := func() *WeightedLeastLoad {
		return &WeightedLeastLoad{
			View: View{
				Backends: backends,
				Weights:  core.DefaultWeights(),
				Source:   f.source,
				Rng:      rand.New(rand.NewSource(1)),
			},
		}
	}
	memo, twin = mk(), mk()
	memo.Updates = f.updates
	return memo, twin
}

// pickCalls picks once and reports the pick and the Source reads it made.
func pickCalls(f *memoFleet, w *WeightedLeastLoad) (b, calls int) {
	c0 := f.calls
	b = w.Pick()
	return b, f.calls - c0
}

// TestPickMemoRescoresOnWeightChange: with no record moving, a pick
// reads no record, until Weights change; then every back-end is
// re-scored under the new weights.
func TestPickMemoRescoresOnWeightChange(t *testing.T) {
	f := newMemoFleet()
	f.set(1, recWithUtil(1, 900)) // CPU-heavy: 0.315 under the default mix
	connHeavy := recWithUtil(2, 0)
	connHeavy.Conns = 24 // connection-heavy: 0.4
	f.set(2, connHeavy)
	w, _ := memoPair(f, []int{1, 2})
	if b, calls := pickCalls(f, w); b != 1 || calls != 2 {
		t.Fatalf("first pick = %d after %d Source calls, want 1 after 2", b, calls)
	}
	if b, calls := pickCalls(f, w); b != 1 || calls != 0 {
		t.Fatalf("second pick = %d after %d Source calls, want 1 after 0", b, calls)
	}
	w.Weights = core.Weights{CPU: 1}
	if b, calls := pickCalls(f, w); b != 2 || calls != 2 {
		t.Fatalf("pick under CPU-only weights = %d after %d Source calls, want 2 after 2", b, calls)
	}
}

// TestPickMemoNoRecordScoresZero: a back-end with no record is scored
// optimistically as 0 under the memo too, and its first record is read
// as soon as its count moves.
func TestPickMemoNoRecordScoresZero(t *testing.T) {
	f := newMemoFleet()
	f.set(1, recWithUtil(1, 800))
	w, _ := memoPair(f, []int{1, 2})
	for range 3 {
		if b := w.Pick(); b != 2 {
			t.Fatalf("pick = %d, want the unknown back-end 2", b)
		}
	}
	f.set(2, recSaturated(2))
	if b := w.Pick(); b != 1 {
		t.Fatalf("pick = %d after back-end 2 reported saturation, want 1", b)
	}
}

// TestPickMemoMatchesFreshScoring drives a memoized policy and its
// fresh-scoring twin through random record updates, missing records,
// exact ties and Backends rewrites (reconfig swaps the slice, and IDs
// the memo has never seen appear): every pick must agree.
func TestPickMemoMatchesFreshScoring(t *testing.T) {
	f := newMemoFleet()
	rng := rand.New(rand.NewSource(3))
	all := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 40}
	memo, twin := memoPair(f, all[:4])
	for step := range 2000 {
		switch r := rng.Intn(10); {
		case r < 6:
			b := all[rng.Intn(len(all))]
			f.set(b, recWithUtil(b, 100*rng.Intn(4))) // coarse loads: ties
		case r == 6:
			ids := slices.Clone(all)
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			ids = ids[:1+rng.Intn(len(ids))]
			memo.Backends, twin.Backends = ids, ids
		}
		if got, want := memo.Pick(), twin.Pick(); got != want {
			t.Fatalf("step %d: memoized pick %d, fresh scoring picks %d (backends %v)",
				step, got, want, memo.Backends)
		}
	}
}
