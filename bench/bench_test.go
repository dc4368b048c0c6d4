package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestCatalogue checks the metric catalogue against the contract's
// limits and against the committed BENCHMARK.json.
func TestCatalogue(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloadSpecs {
		check("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, m := range endToEnd {
		check("end-to-end", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range perLayer {
		check("per-layer", m.Name)
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(perLayer))
	}
	committed, err := os.ReadFile(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with: go run ./bench -benchmark-json > BENCHMARK.json")
	}
}

func tinyRun(t *testing.T, workload string, traced bool) runResult {
	t.Helper()
	var buf bytes.Buffer
	cfg := &runConfig{workload: workload, seed: 7, seconds: 300 * time.Millisecond, traced: traced, sz: tinySizes}
	correct, err := runOne(&buf, cfg, "")
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	res, err := parseRun(buf.Bytes())
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, buf.String())
	}
	if !correct || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: correct=%t fail_share=%d/%d violations=%v", workload, res.Correct, res.Failed, res.Attempted, res.Violations)
	}
	return res
}

func sameNames(t *testing.T, what string, got map[string]value, want []metricSpec) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, catalogue has %d", what, len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, catalogue says %q", what, m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: metric %s is %v", what, m.Name, v.Value)
		}
	}
}

// TestSmoke runs all five workloads at the tiny scale, untraced and
// traced (the traced run includes the layers pass), and checks the
// emitted metric sets, correctness, fingerprints and breakdown sums.
func TestSmoke(t *testing.T) {
	a := resultFile{Scale: "tiny", Seed: 7, Untraced: map[string]runResult{}, Traced: map[string]runResult{}}
	for _, ws := range workloadSpecs {
		u := tinyRun(t, ws.Name, false)
		sameNames(t, ws.Name+" untraced", u.Metrics, endToEnd)
		for _, m := range endToEnd {
			if u.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must be positive", ws.Name, m.Name, u.Metrics[m.Name].Value)
			}
		}
		tr := tinyRun(t, ws.Name, true)
		sameNames(t, ws.Name+" traced", tr.Metrics, perLayer)
		if u.Fingerprint != tr.Fingerprint {
			t.Errorf("%s: fingerprint %q untraced, %q traced, same seed", ws.Name, u.Fingerprint, tr.Fingerprint)
		}
		if strings.HasPrefix(ws.Name, "live-") != (u.Fingerprint == "") {
			t.Errorf("%s: fingerprint %q (simulated workloads have one, live ones do not)", ws.Name, u.Fingerprint)
		}
		b := tr.Breakdown
		if b == nil || len(b.Rows) < 2 { // a layer and the remainder at least
			t.Fatalf("%s: no breakdown table", ws.Name)
		}
		var busy, share float64
		for _, r := range b.Rows {
			busy += r.BusyS
			share += r.Share
		}
		if math.Abs(busy-b.WallS) > 0.01*b.WallS || math.Abs(share-1) > 0.01 {
			t.Errorf("%s: breakdown rows sum to %.6f s (share %.4f), measured wall is %.6f s", ws.Name, busy, share, b.WallS)
		}
		a.Untraced[ws.Name], a.Traced[ws.Name] = u, tr
	}

	// A set agrees with itself, and a noisy set is refused.
	var out bytes.Buffer
	if !compareSets(&out, "a", a, "a", a) {
		t.Errorf("a set does not agree with itself:\n%s", out.String())
	}
	for _, want := range []string{"b/a (base a)", "sweep-8192", "live-mixed", "setup_s", "peak_rss_mb", " ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-compare output lacks %q:\n%s", want, out.String())
		}
	}
	worse := a
	worse.Untraced = map[string]runResult{}
	for k, r := range a.Untraced {
		m := map[string]value{}
		for name, v := range r.Metrics {
			m[name] = v
		}
		r.Metrics = m
		worse.Untraced[k] = r
	}
	r := worse.Untraced["live-probe"]
	r.Metrics["ops_per_s"] = value{r.Metrics["ops_per_s"].Value * 0.5, "1/s"}
	r.Spread = map[string][2]float64{} // a tiny run's few slices are not the point here
	worse.Untraced["live-probe"] = r
	out.Reset()
	if compareSets(&out, "a", a, "b", worse) || !strings.Contains(out.String(), "worse") {
		t.Errorf("halved ops_per_s not reported as worse:\n%s", out.String())
	}
	noisy := a
	noisy.Host.Noisy = true
	out.Reset()
	if compareSets(&out, "a", a, "b", noisy) || !strings.Contains(out.String(), "refusing") {
		t.Errorf("a noisy set was compared:\n%s", out.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, med, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.25, 0.5, 0.99} {
		got, want := h.quantile(q), q*100000
		if math.Abs(got-want) > 0.02*want {
			t.Errorf("quantile(%g) = %g, want %g within 2 %%", q, got, want)
		}
	}
	if i := histIndex(uint64(histLower(777))); i != 777 {
		t.Errorf("histLower(777) lands in bucket %d", i)
	}
}
