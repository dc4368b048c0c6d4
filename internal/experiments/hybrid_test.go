package experiments

import (
	"slices"
	"strings"
	"testing"
)

// TestHybridQuickContract runs the quick hybrid comparison and asserts
// the tentpole contract at its reduced fleet: the hybrid scheme must
// post >= 10x fewer probe work requests than all-pull while both modes
// hold the same effective-staleness bound — the exact criterion the
// full 512-back-end rmbench run enforces.
func TestHybridQuickContract(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment; skipped with -short")
	}
	d := Hybrid(Options{Quick: true})
	if d.Failed {
		t.Fatalf("quick hybrid run reported violations:\n%v", d.Notes)
	}
	if d.WRRatio < hybridWRRatio {
		t.Fatalf("probe-WR reduction %.1fx, want >= %dx", d.WRRatio, hybridWRRatio)
	}
	pull, hyb := d.Points[0], d.Points[1]
	if hyb.PushWRs == 0 || hyb.Decayed == 0 {
		t.Fatalf("hybrid run posted no pushes (%d) or never decayed (%d)", hyb.PushWRs, hyb.Decayed)
	}
	if pull.PushWRs != 0 || pull.Decayed != 0 {
		t.Fatalf("all-pull baseline pushed (%d) or decayed (%d)", pull.PushWRs, pull.Decayed)
	}
	for _, p := range d.Points {
		if p.EffStaleMaxT > hybridStaleSLO {
			t.Fatalf("%s effective staleness %.1fT > %dT", p.Mode, p.EffStaleMaxT, hybridStaleSLO)
		}
	}
}

// TestHybridGateCanFail shows the >= 10x probe-WR gate is live: the
// same quick comparison with the adaptive period capped at 4T instead
// of 64T must fail it, and on that gate. A quiet back-end then costs at
// least a quarter of all-pull's reads, so the reduction cannot reach
// 10x (it reads 4.2x).
func TestHybridGateCanFail(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment; skipped with -short")
	}
	h := hybridConfig()
	h.Period.Max = 4 * hybridPoll
	d := hybrid(Options{Quick: true}, h)
	if !d.Failed || d.WRRatio >= hybridWRRatio {
		t.Fatalf("4T ceiling: failed=%v at %.1fx, want the >= %dx gate to fail", d.Failed, d.WRRatio, hybridWRRatio)
	}
	if !slices.ContainsFunc(d.Notes, func(n string) bool { return strings.HasPrefix(n, "VIOLATION: probe-WR reduction") }) {
		t.Fatalf("no probe-WR violation among the notes:\n%v", d.Notes)
	}
}

// TestHybridDeterministic: the hybrid comparison — flappers, adaptive
// periods, delta pushes, the staleness audit — must be bit-identical
// across two runs with the same seed.
func TestHybridDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment; skipped with -short")
	}
	diffResults(t, "hybrid", runOnce(t, "hybrid"), runOnce(t, "hybrid"))
}
