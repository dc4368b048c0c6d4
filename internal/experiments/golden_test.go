package experiments

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// digestResult hashes everything a Result renders: title, columns,
// rows, notes and the failure flag.
func digestResult(r *Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%q|%q|%q|%q|%v", r.Title, r.Columns, r.Rows, r.Notes, r.Failed)
	return h.Sum64()
}

// pinDigest fails t when r's digest differs from the one captured from
// an earlier tree: the cross-commit pin for a harness or scenario
// result the test already computed.
func pinDigest(t *testing.T, name string, r *Result, want uint64) {
	t.Helper()
	if got := digestResult(r); got != want {
		t.Errorf("%s: result digest 0x%016x, want golden 0x%016x — the output changed", name, got, want)
	}
}

// TestPaperGoldenDigests pins every paper artifact across commits: the
// quick, default-seed Result of fig3–fig9, table1 and the admit, push
// and reconfig extensions, the two runs of the hybrid push/pull path —
// the hybrid experiment and the pooled scale-out at 1024 back-ends
// (delta pushers, the dense due table, pooled and fenced probes,
// listener resets) — the scale sweep and the fault-injection
// experiment. The determinism tests compare two runs in one
// process; this one compares against digests captured from an earlier
// tree, so a change that moves any figure — even by one formatted digit
// — fails here. A change that is meant to move a figure updates its
// digest in the same commit and says why. The figures and extensions
// are rendered from memoResults, the same run their shape tests read.
func TestPaperGoldenDigests(t *testing.T) {
	golden := []struct {
		name     string
		id       string
		backends int
		digest   uint64
	}{
		{"fig3", "fig3", 0, 0xb4c3a2e55fcf9812},
		{"fig4", "fig4", 0, 0x401d1c8555b0f18c},
		{"fig5a", "fig5a", 0, 0x5ac07a8e16aa1d86},
		{"fig5b", "fig5b", 0, 0x129ce730edc34a95},
		{"fig6", "fig6", 0, 0x84e0a834a85bb372},
		{"fig7", "fig7", 0, 0x351d2f15b13c8825},
		{"fig8", "fig8", 0, 0xfafc548919bc8fd4},
		{"fig9", "fig9", 0, 0x5195ceb636ae5c93},
		{"table1", "table1", 0, 0x055d560a16304905},
		{"admit", "admit", 0, 0x5a044583f2609a55},
		{"push", "push", 0, 0xff0dd05cdf741ac1},
		{"reconfig", "reconfig", 0, 0x77ab87dbab73bf36},
		{"hybrid", "hybrid", 0, 0x6d1f071597ce0f04},
		{"scale-1024", "scale", 1024, 0x5673891c2f7aacbc},
		{"scale", "scale", 0, 0x9e83b6bb067579c1},
		{"faults", "faults", 0, 0xa477431af528bfb8},
	}
	for _, g := range golden {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			o := Options{Quick: true, Backends: g.backends}
			var res *Result
			if memo := memoResults[g.id]; memo != nil {
				res = memo(o)
			} else {
				var err error
				if res, err = Run(g.id, o); err != nil {
					t.Fatal(err)
				}
			}
			if got := digestResult(res); got != g.digest {
				t.Errorf("%s: result digest 0x%016x, want golden 0x%016x — the figure changed", g.name, got, g.digest)
			}
		})
	}
}
