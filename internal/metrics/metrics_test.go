package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Max() != 0 {
		t.Fatal("empty sample should report zeros")
	}
	for _, v := range []float64{4, 1, 3, 2, 5} {
		s.Add(v)
	}
	if s.Count() != 5 || s.Mean() != 3 || s.Max() != 5 {
		t.Fatalf("basic stats wrong: n=%d mean=%v max=%v", s.Count(), s.Mean(), s.Max())
	}
}

func TestPercentile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 50}, {95, 95}, {99, 99}, {100, 100},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("P%.0f = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileAfterAddResorts(t *testing.T) {
	var s Sample
	s.Add(10)
	_ = s.Percentile(50)
	s.Add(1) // must invalidate sort
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("min percentile = %v after late add, want 1", got)
	}
}

func TestDeviation(t *testing.T) {
	var d Deviation
	d.Observe(10, 12)
	d.Observe(5, 5)
	d.Observe(0, 7)
	if d.Count() != 3 {
		t.Fatalf("count = %d", d.Count())
	}
	if !almost(d.MeanAbs(), 3, 1e-12) {
		t.Fatalf("mean abs = %v, want 3", d.MeanAbs())
	}
	if d.MaxAbs() != 7 {
		t.Fatalf("max abs = %v, want 7", d.MaxAbs())
	}
	if d.P95Abs() != 7 {
		t.Fatalf("p95 abs = %v, want 7", d.P95Abs())
	}
}

// Property: Percentile(100) is the true max and Percentile(0) the true
// min for any data.
func TestQuickPercentileBounds(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		var s Sample
		cp := append([]float64(nil), vals...)
		for _, v := range cp {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		sort.Float64s(cp)
		return s.Percentile(0) == cp[0] && s.Percentile(100) == cp[len(cp)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleAddAllAndValues(t *testing.T) {
	var a, b Sample
	a.Add(1)
	a.Add(2)
	b.Add(3)
	a.AddAll(&b)
	a.AddAll(nil)
	if a.Count() != 3 || a.Max() != 3 {
		t.Fatalf("after AddAll: n=%d max=%v", a.Count(), a.Max())
	}
	if len(a.Values()) != 3 {
		t.Fatal("Values length mismatch")
	}
	// AddAll must invalidate the sort cache.
	_ = a.Percentile(50)
	var c Sample
	c.Add(0.5)
	a.AddAll(&c)
	if a.Percentile(0) != 0.5 {
		t.Fatal("sort cache not invalidated by AddAll")
	}
}
