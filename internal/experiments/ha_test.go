package experiments

import (
	"testing"
)

// TestHADeterministicGolden is the ci determinism gate for one HA
// seed: the same seeded fault plan replayed twice must produce
// bit-identical result tables (the runner additionally replays its
// first seed internally and compares run fingerprints — a mismatch
// there surfaces as an H5 violation row, which the Failed check below
// would catch). Zero invariant violations and the table committed in
// testdata/golden/test/ha.txt are part of the golden contract. It
// runs under -short too (~0.2 s), so `make test` catches a moved
// harness.
func TestHADeterministicGolden(t *testing.T) {
	run := func() *Result {
		res, err := Run("ha", Options{Seed: 424242, Quick: true, Seeds: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed {
			t.Fatalf("ha run reported invariant violations:\n%v", res.Notes)
		}
		return res
	}
	first := run()
	diffResults(t, "ha", first, run())
	checkGolden(t, "test/ha.txt", first)
}

// TestHAQuickInvariants sweeps a couple of quick random fault plans
// over the replicated front-end and asserts the harness finds nothing:
// exactly-one-primary, epoch fencing, bounded takeover, epoch
// monotonicity and zero back-end cost must all hold.
func TestHAQuickInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment; skipped with -short")
	}
	res, err := Run("ha", Options{Seed: 7, Quick: true, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("invariant violations under quick HA plans:\n%v", res.Notes)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want one per seed", len(res.Rows))
	}
	checkGolden(t, "test/ha-quick.txt", res)
}
