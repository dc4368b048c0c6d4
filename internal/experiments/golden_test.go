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

// TestPaperGoldenDigests pins every paper artifact across commits: the
// quick, default-seed Result of fig3–fig9, table1 and the admit, push
// and reconfig extensions. The determinism tests compare two runs in one
// process; this one compares against digests captured from an earlier
// tree, so a change that moves any figure — even by one formatted digit
// — fails here. A change that is meant to move a figure updates its
// digest in the same commit and says why.
func TestPaperGoldenDigests(t *testing.T) {
	golden := []struct {
		id     string
		digest uint64
	}{
		{"fig3", 0xb4c3a2e55fcf9812},
		{"fig4", 0x401d1c8555b0f18c},
		{"fig5a", 0x5ac07a8e16aa1d86},
		{"fig5b", 0x129ce730edc34a95},
		{"fig6", 0x84e0a834a85bb372},
		{"fig7", 0x351d2f15b13c8825},
		{"fig8", 0xfafc548919bc8fd4},
		{"fig9", 0x5195ceb636ae5c93},
		{"table1", 0x055d560a16304905},
		{"admit", 0x5a044583f2609a55},
		{"push", 0xff0dd05cdf741ac1},
		{"reconfig", 0x77ab87dbab73bf36},
	}
	for _, g := range golden {
		g := g
		t.Run(g.id, func(t *testing.T) {
			t.Parallel()
			res, err := Run(g.id, Options{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := digestResult(res); got != g.digest {
				t.Errorf("%s: result digest 0x%016x, want golden 0x%016x — the figure changed", g.id, got, g.digest)
			}
		})
	}
}
