package experiments

import (
	"strings"
	"testing"

	"rdmamon/internal/scenario"
	"rdmamon/internal/sim"
)

func tinyScenario(minServed float64) *scenario.Scenario {
	return &scenario.Scenario{
		Name:    "tiny",
		Horizon: 2 * sim.Second,
		Fleet:   scenario.Fleet{Backends: 2},
		Workload: scenario.Workload{
			Kind: "rubis", Clients: 8, Think: 20 * sim.Millisecond,
		},
		Assertions: []scenario.Assertion{{Metric: "served", Min: &minServed}},
	}
}

// TestScenarioAssertionPassAndFail: the generic driver evaluates
// assertion blocks and flags the Result on failure — the path rmbench
// turns into a non-zero exit.
func TestScenarioAssertionPassAndFail(t *testing.T) {
	res, err := RunScenario(tinyScenario(10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("trivial floor failed: %+v", res.Notes)
	}
	joined := strings.Join(res.Notes, "\n")
	if !strings.Contains(joined, "PASS: base served") || !strings.Contains(joined, "all 1 assertion(s) passed") {
		t.Fatalf("missing pass verdicts in notes: %q", joined)
	}
	checkGolden(t, "test/tiny-pass.txt", res)

	res, err = RunScenario(tinyScenario(1e12), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Fatal("unreachable floor did not fail the result")
	}
	if !strings.Contains(strings.Join(res.Notes, "\n"), "FAIL: base served") {
		t.Fatalf("missing fail verdict in notes: %+v", res.Notes)
	}
	checkGolden(t, "test/tiny-fail.txt", res)
}

// TestScenarioVariantsDigestDeterminism: the same scenario run twice
// produces identical folded metrics (the replay check inside the
// driver guards one seed; this guards the whole report).
func TestScenarioVariantsDigestDeterminism(t *testing.T) {
	s := tinyScenario(10)
	s.Variants = []scenario.Variant{
		{Name: "ll", Policy: "least-load"},
		{Name: "rr", Policy: "round-robin"},
	}
	s.Assertions = nil
	a, err := RunScenario(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Failed || b.Failed {
		t.Fatalf("determinism replay tripped: %+v / %+v", a.Notes, b.Notes)
	}
	for i := range a.Rows {
		if strings.Join(a.Rows[i], "|") != strings.Join(b.Rows[i], "|") {
			t.Fatalf("row %d diverged across identical runs:\n%v\n%v", i, a.Rows[i], b.Rows[i])
		}
	}
	checkGolden(t, "test/tiny-variants.txt", a)
}

// TestScenarioHeteroStudy runs the curated heterogeneous-fleet
// dispatch study end to end (quick mode) and requires its headline
// assertion to hold: weighted least-load beats round-robin on the
// staleness tail when 30% of the fleet is under-provisioned.
func TestScenarioHeteroStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-variant sweep")
	}
	res, err := RunScenarioFile("../../examples/scenarios/hetero-dispatch.yaml", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("hetero study assertions failed:\n%s", strings.Join(res.Notes, "\n"))
	}
	checkGolden(t, "quick/rmbench_scenario_examples_scenarios_hetero_dispatch.yaml_quick.txt", res)
}

// TestScenarioChecksRouting: checks scenarios run through the chaos/ha
// invariant checkers and come back under the scenario's name.
func TestScenarioChecksRouting(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos sweep")
	}
	res, err := RunScenario(scenario.BuiltinChaos(), Options{Quick: true, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "chaos" {
		t.Fatalf("result ID %q", res.ID)
	}
	if res.Failed {
		t.Fatalf("builtin chaos scenario violated invariants:\n%s", strings.Join(res.Notes, "\n"))
	}
	checkGolden(t, "test/chaos-scenario.txt", res)
}
