package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// Property-based checks of the estimators against naive reference
// implementations. Inputs are generated by testing/quick and squashed
// into a sane range first (the estimators are used on latencies in
// microseconds, not on 1e300) so floating-point divergence between the
// reference and the implementation stays below the tolerance.

// squash maps arbitrary generated floats into [0, 1e6), dropping
// NaN/Inf, and reports whether anything survived.
func squash(raw []float64) []float64 {
	out := make([]float64, 0, len(raw))
	for _, v := range raw {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		out = append(out, math.Abs(math.Mod(v, 1e6)))
	}
	return out
}

// naivePercentile is the nearest-rank definition straight from its
// textbook statement, independent of Sample's caching and sorting.
func naivePercentile(vals []float64, p float64) float64 {
	cp := append([]float64(nil), vals...)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(cp))))
	if rank < 1 {
		rank = 1
	}
	return cp[rank-1]
}

// Property: Sample.Percentile equals the nearest-rank reference for
// every p, even when adds and queries interleave (the sort cache must
// be invalidated by every mutation path).
func TestQuickPercentileMatchesNearestRank(t *testing.T) {
	f := func(raw []float64, pRaw uint8) bool {
		vals := squash(raw)
		if len(vals) == 0 {
			return true
		}
		p := float64(pRaw % 101)
		var s Sample
		for i, v := range vals {
			s.Add(v)
			if i == len(vals)/2 {
				_ = s.Percentile(50) // populate the sort cache mid-stream
			}
		}
		return s.Percentile(p) == naivePercentile(vals, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: merging with AddAll is equivalent to observing the
// concatenation — counts, means and percentiles agree with a Sample
// fed every value directly.
func TestQuickAddAllMatchesConcat(t *testing.T) {
	f := func(rawA, rawB []float64, pRaw uint8) bool {
		a, b := squash(rawA), squash(rawB)
		if len(a)+len(b) == 0 {
			return true
		}
		p := float64(pRaw % 101)
		var merged, direct, other Sample
		for _, v := range a {
			merged.Add(v)
			direct.Add(v)
		}
		for _, v := range b {
			other.Add(v)
			direct.Add(v)
		}
		_ = merged.Percentile(50) // cache must not survive the merge
		merged.AddAll(&other)
		return merged.Count() == direct.Count() &&
			merged.Percentile(p) == direct.Percentile(p) &&
			merged.Mean() == direct.Mean()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
