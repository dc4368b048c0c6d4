package experiments

import (
	"testing"

	"rdmamon/internal/scenario"
)

// TestAADeterministicGolden is the ci determinism gate for one
// active-active seed: the same seeded fault plan replayed twice must
// produce bit-identical result tables (the runner additionally replays
// its first seed internally — chaos run AND both throughput runs — and
// compares fingerprints; a mismatch surfaces as an A5 violation row,
// which the Failed check below would catch). Zero invariant violations
// is part of the golden contract, and so is the table's digest as
// captured from an earlier tree.
func TestAADeterministicGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment; skipped with -short")
	}
	run := func() *Result {
		res, err := Run("aa", Options{Seed: 424242, Quick: true, Seeds: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed {
			t.Fatalf("aa run reported invariant violations:\n%v", res.Notes)
		}
		return res
	}
	first := run()
	diffResults(t, "aa", first, run())
	pinDigest(t, "aa", first, 0xc75de502dcf8ebcd)
}

// TestAAQuickInvariants sweeps a couple of quick random claim-stall
// plans over the active-active fleet and asserts the harness finds
// nothing: zero double-dispatch, bounded orphan reclamation, >= 2x
// single-primary throughput and >= 1/2N per-front-end fairness must
// all hold.
func TestAAQuickInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment; skipped with -short")
	}
	res, err := Run("aa", Options{Seed: 7, Quick: true, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("invariant violations under quick active-active plans:\n%v", res.Notes)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want one per seed", len(res.Rows))
	}
	pinDigest(t, "aa-quick", res, 0xd2eea1a842a7b98d)
}

// TestAAThreeReplicaFloor pins the non-default replica count path: the
// builtin scenario with `replicas: 3` must still hold every invariant,
// with the A3 expectation scaling to the smaller fleet (>= 2x stays the
// floor).
func TestAAThreeReplicaFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment; skipped with -short")
	}
	s := scenario.BuiltinAA()
	s.Replicas = 3
	res, err := RunScenario(s, Options{Seed: 99, Quick: true, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("invariant violations with 3 front-ends:\n%v", res.Notes)
	}
	pinDigest(t, "aa-3fe", res, 0xd751510d0bc1a7ab)
}
