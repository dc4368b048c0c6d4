package experiments

import "testing"

// TestHistoryQuickContract runs the quick history-ring comparison and
// asserts the tentpole contracts at its reduced fleet — the same
// criteria the full 256-back-end rmbench run enforces: one ring read
// replaces ~K point probes at equal sample coverage, and trend-aware
// dispatch lands its picks on lower peak ground-truth load than the
// level-only policy over the same ramping workload.
func TestHistoryQuickContract(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment; skipped with -short")
	}
	d := History(Options{Quick: true})
	if d.Failed {
		t.Fatalf("quick history run reported violations:\n%v", d.Notes)
	}
	if d.WRRatio < histWRRatio {
		t.Fatalf("probe-WR reduction %.1fx, want >= %.1fx", d.WRRatio, histWRRatio)
	}
	ring := d.Coverage[1]
	if ring.SamplesPerWR < histSamplesPerWR {
		t.Fatalf("ring reads amortize %.1f samples/WR, want >= %.1f",
			ring.SamplesPerWR, histSamplesPerWR)
	}
	level, trend := d.Dispatch[0], d.Dispatch[1]
	if trend.PeakIdx > level.PeakIdx-histPeakMargin {
		t.Fatalf("trend peak landing index %.3f vs level %.3f, want lower by >= %.2f",
			trend.PeakIdx, level.PeakIdx, histPeakMargin)
	}
	if trend.TrendPicks == 0 || level.TrendPicks != 0 {
		t.Fatalf("trend picks: trend run %d (want > 0), level run %d (want 0)",
			trend.TrendPicks, level.TrendPicks)
	}
	if trend.Digest != d.ReplayB {
		t.Fatalf("seeded replay diverged: %016x vs %016x", trend.Digest, d.ReplayB)
	}
}

// TestHistoryDeterministic: the whole experiment — flappers, ring
// sampling, seqlock retries, trend-aware picks, the landing audit —
// must be bit-identical across two runs with the same seed.
func TestHistoryDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment; skipped with -short")
	}
	diffResults(t, "history", runOnce(t, "history"), runOnce(t, "history"))
}

// TestHistoryGoldenDigest pins the quick history result across
// commits to the output its quick line of testdata/runs.txt commits:
// the only experiment whose ring reads ride doorbell batches.
func TestHistoryGoldenDigest(t *testing.T) {
	res, err := Run("history", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("history run reported violations:\n%v", res.Notes)
	}
	checkGolden(t, "quick/rmbench_exp_history_quick.txt", res)
}
