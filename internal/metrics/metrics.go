// Package metrics provides the statistics used throughout the
// benchmark harness: response-time samples with percentiles,
// log-bucketed histograms, time series, online mean/variance, EWMA
// smoothing and deviation tracking (for the paper's accuracy
// experiments).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates float64 observations and keeps every one, so only
// a caller that wants exact samples installs one.
type Sample struct {
	vals   []float64
	sorted bool
}

// Add appends one observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

// Count returns the number of observations.
func (s *Sample) Count() int { return len(s.vals) }

// Values returns the underlying observations (not a copy; do not
// mutate).
func (s *Sample) Values() []float64 { return s.vals }

// AddAll folds another sample's observations into s.
func (s *Sample) AddAll(o *Sample) {
	if o == nil {
		return
	}
	s.vals = append(s.vals, o.vals...)
	s.sorted = false
}

// Mean returns the arithmetic mean (0 if empty).
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Min returns the smallest observation (0 if empty).
func (s *Sample) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	m := s.vals[0]
	for _, v := range s.vals {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest observation (0 if empty).
func (s *Sample) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	m := s.vals[0]
	for _, v := range s.vals {
		if v > m {
			m = v
		}
	}
	return m
}

// Stddev returns the population standard deviation.
func (s *Sample) Stddev() float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	mean := s.Mean()
	ss := 0.0
	for _, v := range s.vals {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Percentile returns the p-th percentile (p in [0,100]) using
// nearest-rank on the sorted data.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 100 {
		return s.vals[n-1]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s.vals[rank-1]
}

// Summary is a compact statistical digest of a Sample.
type Summary struct {
	Count          int
	Mean, Min, Max float64
	P50, P95, P99  float64
	Stddev         float64
}

// Summarize computes the digest.
func (s *Sample) Summarize() Summary {
	return Summary{
		Count:  s.Count(),
		Mean:   s.Mean(),
		Min:    s.Min(),
		Max:    s.Max(),
		P50:    s.Percentile(50),
		P95:    s.Percentile(95),
		P99:    s.Percentile(99),
		Stddev: s.Stddev(),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3g p50=%.3g p95=%.3g p99=%.3g max=%.3g",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}

// Hist is a log2-bucketed histogram of non-negative integer values
// (e.g. latencies in microseconds). Bucket i holds values in
// [2^i, 2^(i+1)).
type Hist struct {
	buckets [64]uint64
	count   uint64
	sum     uint64
	max     uint64
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	i := 0
	for x := v; x > 1; x >>= 1 {
		i++
	}
	h.buckets[i]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.count }

// Max returns the largest observation.
func (h *Hist) Max() uint64 { return h.max }

// Mean returns the mean observation.
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]) from
// the bucket boundaries.
func (h *Hist) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			return 1 << uint(i+1)
		}
	}
	return h.max
}

// Point is one (time, value) observation of a time series.
type Point struct {
	T float64 // seconds
	V float64
}

// Series is an append-only time series.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(t, v float64) { s.Points = append(s.Points, Point{T: t, V: v}) }

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Points) }

// MeanV returns the mean of the values.
func (s *Series) MeanV() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

// MaxV returns the maximum value.
func (s *Series) MaxV() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	m := s.Points[0].V
	for _, p := range s.Points {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// Downsample reduces the series to at most n points by averaging
// equal-size chunks (for compact text plots).
func (s *Series) Downsample(n int) Series {
	out := Series{Name: s.Name}
	if n <= 0 || len(s.Points) == 0 {
		return out
	}
	if len(s.Points) <= n {
		out.Points = append(out.Points, s.Points...)
		return out
	}
	chunk := float64(len(s.Points)) / float64(n)
	for i := 0; i < n; i++ {
		lo := int(float64(i) * chunk)
		hi := int(float64(i+1) * chunk)
		if hi > len(s.Points) {
			hi = len(s.Points)
		}
		if lo >= hi {
			continue
		}
		var st, sv float64
		for _, p := range s.Points[lo:hi] {
			st += p.T
			sv += p.V
		}
		c := float64(hi - lo)
		out.Points = append(out.Points, Point{T: st / c, V: sv / c})
	}
	return out
}

// Welford is an online mean/variance accumulator.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds in one observation.
func (w *Welford) Add(v float64) {
	w.n++
	d := v - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (v - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() int { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running population variance.
func (w *Welford) Variance() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Stddev returns the running population standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }

// EWMA is an exponentially weighted moving average.
type EWMA struct {
	Alpha float64 // weight of the newest observation, (0,1]
	v     float64
	init  bool
}

// Add folds in one observation and returns the new average.
func (e *EWMA) Add(v float64) float64 {
	if !e.init {
		e.v = v
		e.init = true
		return v
	}
	e.v = e.Alpha*v + (1-e.Alpha)*e.v
	return e.v
}

// Value returns the current average.
func (e *EWMA) Value() float64 { return e.v }

// Deviation accumulates |reported - truth| pairs — the paper's
// accuracy metric (Figure 5).
type Deviation struct {
	abs Sample
}

// Observe records one (reported, truth) pair.
func (d *Deviation) Observe(reported, truth float64) {
	d.abs.Add(math.Abs(reported - truth))
}

// Count returns the number of pairs observed.
func (d *Deviation) Count() int { return d.abs.Count() }

// MeanAbs returns the mean absolute deviation.
func (d *Deviation) MeanAbs() float64 { return d.abs.Mean() }

// MaxAbs returns the maximum absolute deviation.
func (d *Deviation) MaxAbs() float64 { return d.abs.Max() }

// P95Abs returns the 95th percentile absolute deviation.
func (d *Deviation) P95Abs() float64 { return d.abs.Percentile(95) }
