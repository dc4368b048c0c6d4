package httpsim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rdmamon/internal/loadbalance"
	"rdmamon/internal/sim"
)

// refWindow is the naive model the dispatcher's recent-traffic window
// is checked against: a sparse map aged with the original piecewise
// arithmetic, whose total is recomputed in ascending id order on every
// query.
type refWindow struct {
	tau, last sim.Time
	counts    map[int]float64
}

func (w *refWindow) decay(now sim.Time) {
	dt := now - w.last
	if dt <= 0 {
		return
	}
	w.last = now
	if dt > 4*w.tau {
		for b := range w.counts {
			w.counts[b] = 0
		}
		return
	}
	f := 1 - float64(dt)/float64(w.tau)
	if f < 0 {
		f = 0
	}
	for b := range w.counts {
		w.counts[b] *= f
	}
}

func (w *refWindow) forward(now sim.Time, b int) {
	w.decay(now)
	w.counts[b]++
}

func (w *refWindow) total() float64 {
	ids := make([]int, 0, len(w.counts))
	for b := range w.counts {
		ids = append(ids, b)
	}
	sort.Ints(ids)
	total := 0.0
	for _, b := range ids {
		total += w.counts[b]
	}
	return total
}

func (w *refWindow) frac(now sim.Time, b int) float64 {
	w.decay(now)
	total := w.total()
	if total < 1e-9 {
		return 0
	}
	return w.counts[b] / total
}

// TestQuickWindowMatchesReference drives random forwards and clock
// advances through the dispatcher's window and the reference model and
// requires LocalFrac to agree bit for bit on every id after every
// step, and the fractions to sum to 1 whenever the window holds
// traffic.
func TestQuickWindowMatchesReference(t *testing.T) {
	const maxID = 40
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(1)
		d := StartDispatcher(r.front, r.fnic, &loadbalance.RoundRobin{Backends: []int{1}})
		ref := &refWindow{tau: d.localTau, counts: map[int]float64{}}
		for b := -1; b <= maxID+1; b++ {
			if d.LocalFrac(b) != 0 {
				t.Errorf("seed %d: LocalFrac(%d) = %v before any traffic", seed, b, d.LocalFrac(b))
				return false
			}
		}
		for step := 0; step < 200; step++ {
			// Advance the clock: mostly not at all or a little, now and
			// then past the full-reset horizon.
			var dt sim.Time
			switch rng.Intn(8) {
			case 0, 1, 2:
			case 3:
				dt = 4*d.localTau + sim.Time(rng.Int63n(int64(d.localTau)))
			case 4:
				dt = d.localTau + sim.Time(rng.Int63n(int64(3*d.localTau)))
			default:
				dt = sim.Time(rng.Int63n(int64(d.localTau)))
			}
			r.eng.RunUntil(r.eng.Now() + dt)
			now := r.eng.Now()
			if rng.Intn(4) > 0 {
				// Ids climb as the run goes on, so forwards keep landing
				// on ids never seen before and beyond the slice's end.
				b := rng.Intn(2 + step*maxID/200)
				d.noteForward(b)
				ref.forward(now, b)
			}
			sum := 0.0
			for b := -1; b <= maxID+1; b++ {
				got, want := d.LocalFrac(b), ref.frac(now, b)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("seed %d step %d: LocalFrac(%d) = %v, reference %v", seed, step, b, got, want)
					return false
				}
				if _, seen := ref.counts[b]; !seen && got != 0 {
					t.Errorf("seed %d step %d: LocalFrac(%d) = %v for an id never forwarded to", seed, step, b, got)
					return false
				}
				sum += got
			}
			want := 1.0
			if ref.total() < 1e-9 {
				want = 0
			}
			if math.Abs(sum-want) > 1e-12 {
				t.Errorf("seed %d step %d: fractions sum to %v, want %v", seed, step, sum, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLocalFrac times one query against a window naming 64
// back-ends, the way a policy asks once per candidate per pick.
func BenchmarkLocalFrac(b *testing.B) {
	const n = 64
	r := newRig(1)
	d := StartDispatcher(r.front, r.fnic, &loadbalance.RoundRobin{Backends: []int{1}})
	for id := 1; id <= n; id++ {
		d.noteForward(id)
	}
	var f float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f += d.LocalFrac(1 + i%n)
	}
	sink = f
}

var sink float64
