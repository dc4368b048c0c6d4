// Package metrics provides the statistics used throughout the
// benchmark harness: response-time samples with percentiles and
// deviation tracking (for the paper's accuracy experiments).
package metrics

import (
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
