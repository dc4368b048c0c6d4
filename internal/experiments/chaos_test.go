package experiments

import (
	"testing"
)

// TestChaosDeterministicGolden is the ci determinism gate for one chaos
// seed: the same seeded fault plan replayed twice must produce
// bit-identical result tables (the chaos runner additionally replays
// its first seed internally and compares run fingerprints — a mismatch
// there surfaces as an I5 violation row, which the Failed check below
// would catch). Zero invariant violations and the table committed in
// testdata/golden/test/chaos.txt are part of the golden contract. It
// runs under -short too (~0.2 s), so `make test` catches a moved
// harness.
func TestChaosDeterministicGolden(t *testing.T) {
	run := func() *Result {
		res, err := Run("chaos", Options{Seed: 424242, Quick: true, Seeds: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed {
			t.Fatalf("chaos run reported invariant violations:\n%v", res.Notes)
		}
		return res
	}
	first := run()
	diffResults(t, "chaos", first, run())
	checkGolden(t, "test/chaos.txt", first)
}

// TestChaosQuickInvariants sweeps a couple of quick random fault plans
// and asserts the harness itself finds nothing: every invariant —
// no dispatch to crashed nodes, bounded staleness over whichever
// transport, failover/fail-back SLOs, per-transport sequence
// monotonicity — must hold.
func TestChaosQuickInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment; skipped with -short")
	}
	res, err := Run("chaos", Options{Seed: 7, Quick: true, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("invariant violations under quick chaos plans:\n%v", res.Notes)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want one per seed", len(res.Rows))
	}
	checkGolden(t, "test/chaos-quick.txt", res)
}
