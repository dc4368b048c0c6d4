package core

import (
	"math"

	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

// TrendTracker turns a back-end's sample history into a load-index
// slope. The history ring delivers K timestamped samples per read;
// folding their successive index deltas through an EWMA yields the
// trend signal the slope-aware dispatcher and the hybrid period
// controller consume. It is pure state — no clocks, no tasks — so its
// behaviour is property-testable and identical on the sim and live
// paths.
//
// Two outputs with different smoothing serve different consumers:
//
//   - Slope() is the EWMA'd dIndex/dt in index units per second —
//     stable enough to project "where will this back-end be one
//     horizon from now" without herding on a single noisy delta.
//   - LastRate() is the maximum |dIndex/dt| among the samples folded
//     by the most recent observation — the raw ring change-rate the
//     period controller's volatility test wants (smoothing a spike
//     away is exactly wrong there).
//
// Samples are scored with DefaultWeights.
type TrendTracker struct {
	epoch    uint32
	lastK    int64 // KTimeNS of the newest folded sample
	lastIdx  float64
	slope    float64
	lastRate float64
	primed   bool // at least two samples folded (slope meaningful)
	seen     bool // at least one sample folded
}

// trendAlpha is the slope EWMA's smoothing factor: reactive but not
// single-sample twitchy.
const trendAlpha = 0.4

// Reset drops all trend state (agent restart, epoch change).
func (tt *TrendTracker) Reset() {
	tt.lastK, tt.lastIdx, tt.slope, tt.lastRate = 0, 0, 0, 0
	tt.primed, tt.seen = false, false
}

// Slope returns the EWMA'd load-index slope in index units per second
// and whether enough history has been folded for it to mean anything.
func (tt *TrendTracker) Slope() (float64, bool) { return tt.slope, tt.primed }

// LastRate returns the raw ring change-rate of the most recent
// observation that folded new samples: the maximum |dIndex/dt| (index
// units per second) among the sample pairs it folded. An observation
// carrying nothing new keeps the previous rate — the freshest estimate
// available. Zero until two samples have been seen.
func (tt *TrendTracker) LastRate() float64 { return tt.lastRate }

// ObserveRecord folds one sample (a point probe, a socket fallback
// reply, a pushed delta). Samples at or before the newest already
// folded are ignored, so a ring fold followed by the same record via
// finishProbe never double-counts.
func (tt *TrendTracker) ObserveRecord(rec *wire.LoadRecord) {
	if tt.seen && rec.KTimeNS <= tt.lastK {
		return
	}
	tt.lastRate = 0
	tt.fold(rec)
}

// ObserveRing folds every not-yet-seen sample of a decoded ring view,
// oldest first, and returns how many were new. A view from a different
// ring epoch resets the tracker first: slopes across an agent restart
// or MR re-pin would be fiction.
func (tt *TrendTracker) ObserveRing(v *wire.RingView) int {
	if v.Epoch != tt.epoch {
		tt.Reset()
		tt.epoch = v.Epoch
	}
	n := 0
	for i := v.Count - 1; i >= 0; i-- {
		if tt.seen && v.Records[i].KTimeNS <= tt.lastK {
			continue
		}
		if n == 0 {
			tt.lastRate = 0
		}
		if tt.fold(&v.Records[i]) {
			n++
		}
	}
	return n
}

// fold applies one sample; reports whether it was new.
func (tt *TrendTracker) fold(rec *wire.LoadRecord) bool {
	if tt.seen && rec.KTimeNS <= tt.lastK {
		return false
	}
	w := DefaultWeights()
	idx := w.IndexOf(rec)
	if !tt.seen {
		tt.seen = true
		tt.lastK = rec.KTimeNS
		tt.lastIdx = idx
		return true
	}
	dt := float64(rec.KTimeNS-tt.lastK) / float64(sim.Second)
	if dt > 0 {
		inst := (idx - tt.lastIdx) / dt
		if r := math.Abs(inst); r > tt.lastRate {
			tt.lastRate = r
		}
		a := trendAlpha
		tt.slope = a*inst + (1-a)*tt.slope
		tt.primed = true
	}
	tt.lastK = rec.KTimeNS
	tt.lastIdx = idx
	return true
}
