package faults

import (
	"fmt"
	"hash/fnv"
	"io"
	"regexp"
	"testing"

	"rdmamon/internal/sim"
)

// digestPlan hashes p's %+v rendering in the layout the goldens were
// captured with, when LinkFault still had a Dup field (always zero:
// RandomPlan never drew it), so the goldens keep pinning the values.
func digestPlan(p Plan) uint64 {
	h := fnv.New64a()
	io.WriteString(h, linkFaultLayout.ReplaceAllString(fmt.Sprintf("%+v", p), "$1 Dup:0 DelayProb:"))
	return h.Sum64()
}

var linkFaultLayout = regexp.MustCompile(`(Drop:\S+) DelayProb:`)

// TestRandomPlanGoldenDigests pins RandomPlan's RNG stream discipline:
// every draw added since these digests were captured is gated behind a
// config field that defaults to off and happens strictly after all
// pre-existing draws, so the (seed, cfg) pairs used by PR 2-7's chaos
// and HA experiments still produce bit-identical plans. The digests
// were captured from the unmodified generator immediately before the
// claim-stall draws were added; if this test fails, a new draw leaked
// into the historical stream (reordered, or not gated off by default)
// and every published replay fingerprint is silently invalidated.
func TestRandomPlanGoldenDigests(t *testing.T) {
	configs := []struct {
		name   string
		cfg    ChaosConfig
		golden uint64
	}{
		{"chaos-20s", ChaosConfig{Backends: 8, Horizon: 20 * sim.Second}, 0xe3ad132f03b63b2e},
		{"chaos-8s", ChaosConfig{Backends: 8, Horizon: 8 * sim.Second}, 0x712ede903dc49962},
		{"chaos-10s", ChaosConfig{Backends: 8, Horizon: 10 * sim.Second}, 0x2d48bf55a9b44022},
		{"ha-20s", ChaosConfig{Backends: 8, Horizon: 20 * sim.Second, FrontEnds: []int{0, 9, 10}, Witness: 11}, 0x2fcd939ecfae7551},
		{"ha-10s", ChaosConfig{Backends: 8, Horizon: 10 * sim.Second, FrontEnds: []int{0, 9, 10}, Witness: 11}, 0x3c9bb9c4dd519284},
	}
	for _, c := range configs {
		h := fnv.New64a()
		for seed := int64(0); seed < 50; seed++ {
			fmt.Fprintf(h, "%d:%d;", seed, digestPlan(RandomPlan(seed, c.cfg)))
		}
		if got := h.Sum64(); got != c.golden {
			t.Errorf("%s: plan digest 0x%016x, want golden 0x%016x — historical plans changed", c.name, got, c.golden)
		}
	}
}

// TestRandomPlanClaimStalls checks the new draws themselves: with
// ClaimStalls set the plan gains alternating front-end freezes and
// front-end/witness partitions on top of (never instead of) the lease
// fault windows, all inside the horizon's settle window.
func TestRandomPlanClaimStalls(t *testing.T) {
	base := ChaosConfig{Backends: 8, Horizon: 20 * sim.Second, FrontEnds: []int{0, 9, 10}, Witness: 11}
	withStalls := base
	withStalls.ClaimStalls = 4
	for seed := int64(0); seed < 20; seed++ {
		p0 := RandomPlan(seed, base)
		p1 := RandomPlan(seed, withStalls)
		if got, want := len(p1.Freezes), len(p0.Freezes)+2; got != want {
			t.Fatalf("seed %d: freezes = %d, want %d", seed, got, want)
		}
		if got, want := len(p1.Partitions), len(p0.Partitions)+2; got != want {
			t.Fatalf("seed %d: partitions = %d, want %d", seed, got, want)
		}
		// The pre-existing windows are untouched: append-only means the
		// shared prefix of the two plans is identical.
		for i, f := range p0.Freezes {
			if p1.Freezes[i] != f {
				t.Fatalf("seed %d: pre-existing freeze %d changed", seed, i)
			}
		}
		for i, pt := range p0.Partitions {
			if p1.Partitions[i].Start != pt.Start || p1.Partitions[i].End != pt.End {
				t.Fatalf("seed %d: pre-existing partition %d changed", seed, i)
			}
		}
		fes := map[int]bool{0: true, 9: true, 10: true}
		for _, f := range p1.Freezes[len(p0.Freezes):] {
			if !fes[f.Node] {
				t.Fatalf("seed %d: claim-stall freeze on non-front-end %d", seed, f.Node)
			}
			if f.Until > sim.Time(0.85*float64(base.Horizon)) {
				t.Fatalf("seed %d: claim-stall freeze runs past the settle window", seed)
			}
		}
		for _, pt := range p1.Partitions[len(p0.Partitions):] {
			if len(pt.A) != 1 || !fes[pt.A[0]] || len(pt.B) != 1 || pt.B[0] != 11 {
				t.Fatalf("seed %d: claim-stall partition %v not fe<->witness", seed, pt)
			}
			if pt.End > sim.Time(0.85*float64(base.Horizon)) {
				t.Fatalf("seed %d: claim-stall partition past the settle window", seed)
			}
		}
	}
}
