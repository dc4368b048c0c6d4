// Scenario driver: runs declarative scenarios (internal/scenario)
// against the simulated cluster. Scenarios with `checks: chaos`,
// `checks: ha` or `checks: aa` route into those experiments' invariant
// checkers over the compiled config (`-exp chaos`, `-exp ha` and
// `-exp aa` go the same way, via the builtin scenarios); everything
// else runs the
// generic driver below — per-variant seeded runs, a staleness sampler,
// per-template dispatch shares, and assertion verdicts that propagate
// a non-zero rmbench exit on failure.
package experiments

import (
	"fmt"
	"os"
	"strings"

	"rdmamon/internal/cluster"
	"rdmamon/internal/metrics"
	"rdmamon/internal/scenario"
	"rdmamon/internal/sim"
)

// RunScenarioFile loads, parses, compiles and runs a scenario file
// (YAML or JSON).
func RunScenarioFile(path string, o Options) (*Result, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	s, err := scenario.Parse(src)
	if err != nil {
		return nil, err
	}
	return RunScenario(s, o)
}

// RunScenario runs a parsed scenario and renders its end-of-run
// report. Result.Failed is set when any assertion (or invariant, for
// checks scenarios) fails.
func RunScenario(s *scenario.Scenario, o Options) (*Result, error) {
	cp, err := s.Compile(o.Quick)
	if err != nil {
		return nil, err
	}
	var res *Result
	switch s.Checks {
	case "chaos":
		res = chaosScenario(cp, o).Result()
	case "ha":
		res = haScenario(cp, o).Result()
	case "aa":
		res = aaScenario(cp, o).Result()
	default:
		return runScenarioGeneric(cp, o), nil
	}
	res.ID = s.Name
	return res, nil
}

// compileBuiltin compiles one of the builtin scenarios `-exp chaos`,
// `-exp ha` and `-exp aa` run. The golden tests cover every builtin,
// so a compile failure here is a programming error, not an input
// error.
func compileBuiltin(s *scenario.Scenario, quick bool) *scenario.Compiled {
	cp, err := s.Compile(quick)
	if err != nil {
		panic(err)
	}
	return cp
}

// scenarioRun is one (variant, seed) run's raw stats.
type scenarioRun struct {
	served, routed, timeouts uint64
	respMean, respP99        float64 // ms
	staleMax, staleP99       float64 // record age, in probe periods T
	perNode                  []uint64
	digest                   string
}

// runScenarioGeneric sweeps every variant over the seed set, folds the
// per-seed stats into per-variant metrics, evaluates the assertion
// block, and renders the report through the shared table writer.
func runScenarioGeneric(cp *scenario.Compiled, o Options) *Result {
	s := cp.S
	n := cp.Points(o.Seeds)
	base := cp.BaseSeed(o.Seed)

	type cell struct{ runs []scenarioRun }
	cells := make([]cell, len(cp.Variants))
	for vi := range cp.Variants {
		cells[vi].runs = make([]scenarioRun, n)
	}
	// Flatten (variant, seed) into one fan-out: each run is its own
	// simulation engine, so they are independent.
	forEach(o, len(cp.Variants)*n, func(k int) {
		vi, i := k/n, k%n
		cells[vi].runs[i] = scenarioRunOne(cp, cp.Variants[vi].Policy, cp.SeedAt(base, i))
	})

	res := &Result{
		ID:    s.Name,
		Title: scenarioTitle(s),
	}

	// Replay determinism: the first variant's first seed, run again,
	// must reproduce its digest bit-identically.
	replay := scenarioRunOne(cp, cp.Variants[0].Policy, cp.SeedAt(base, 0))
	if replay.digest != cells[0].runs[0].digest {
		res.Failed = true
		res.Notes = append(res.Notes,
			fmt.Sprintf("FAIL: determinism: replay of seed %d diverged", cp.SeedAt(base, 0)))
	}

	shareCols := scenario.SortedShareMetrics(s.Fleet.Templates)
	cols := append([]string{"variant"}, scenario.MetricNames()...)
	cols = append(cols, shareCols...)
	res.Columns = cols

	byVariant := make(map[string]map[string]float64, len(cp.Variants))
	for vi, v := range cp.Variants {
		m := foldRuns(cp, cells[vi].runs)
		byVariant[v.Name] = m
		row := []string{v.Name}
		for _, name := range scenario.MetricNames() {
			row = append(row, fmtMetric(name, m[name]))
		}
		for _, name := range shareCols {
			row = append(row, fmtMetric(name, m[name]))
		}
		res.Rows = append(res.Rows, row)
	}

	if len(cp.Counts) > 0 {
		parts := make([]string, len(cp.Counts))
		for j, c := range cp.Counts {
			parts[j] = fmt.Sprintf("%d x %s", c, s.Fleet.Templates[j].Name)
		}
		res.Notes = append(res.Notes, "fleet: "+strings.Join(parts, ", ")+
			fmt.Sprintf(" (%d back-ends, %d seed(s), horizon %v)", cp.Backends, n, cp.Horizon))
	}

	pass := 0
	for _, a := range s.Assertions {
		verdict, ok := evalAssertion(a, cp, byVariant)
		if ok {
			pass++
		} else {
			res.Failed = true
		}
		res.Notes = append(res.Notes, verdict)
	}
	if len(s.Assertions) > 0 && !res.Failed {
		res.Notes = append(res.Notes, fmt.Sprintf("all %d assertion(s) passed", pass))
	}
	return res
}

func scenarioTitle(s *scenario.Scenario) string {
	if s.Description != "" {
		return s.Description
	}
	return "declarative scenario"
}

// fmtMetric renders one metric value with a unit-appropriate width.
func fmtMetric(name string, v float64) string {
	switch {
	case strings.HasPrefix(name, "share_"):
		return fmt.Sprintf("%.3f", v)
	case strings.HasSuffix(name, "_ms") || strings.HasSuffix(name, "_t"):
		return f2(v)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// foldRuns reduces per-seed stats to the variant's reported metrics:
// counters and percentiles average across seeds; stale_max_t takes the
// worst seed (it is a bound, not a typical value).
func foldRuns(cp *scenario.Compiled, runs []scenarioRun) map[string]float64 {
	m := map[string]float64{}
	n := float64(len(runs))
	var perNode []uint64
	for _, r := range runs {
		m["served"] += float64(r.served) / n
		m["routed"] += float64(r.routed) / n
		m["timeouts"] += float64(r.timeouts) / n
		m["resp_mean_ms"] += r.respMean / n
		m["resp_p99_ms"] += r.respP99 / n
		m["stale_p99_t"] += r.staleP99 / n
		if r.staleMax > m["stale_max_t"] {
			m["stale_max_t"] = r.staleMax
		}
		if perNode == nil {
			perNode = make([]uint64, len(r.perNode))
		}
		for b := range r.perNode {
			perNode[b] += r.perNode[b]
		}
	}
	if len(cp.Counts) > 0 {
		var total uint64
		byTemplate := map[string]uint64{}
		for b := 1; b < len(perNode); b++ {
			total += perNode[b]
			byTemplate[cp.TemplateOf(b)] += perNode[b]
		}
		for name, c := range byTemplate {
			if total > 0 {
				m["share_"+name] = float64(c) / float64(total)
			}
		}
	}
	return m
}

// evalAssertion renders one assertion's verdict line and whether it
// passed.
func evalAssertion(a scenario.Assertion, cp *scenario.Compiled, byVariant map[string]map[string]float64) (string, bool) {
	names := make([]string, len(cp.Variants))
	for i, v := range cp.Variants {
		names[i] = v.Name
	}
	vn := a.Variant
	if vn == "" {
		vn = names[0]
	}
	vm := byVariant[vn]
	v, ok := vm[a.Metric]
	if !ok {
		return fmt.Sprintf("FAIL: %s: unknown metric %q for variant %s", a.Metric, a.Metric, vn), false
	}
	var checks []string
	pass := true
	if a.Min != nil {
		okMin := v >= *a.Min
		pass = pass && okMin
		checks = append(checks, fmt.Sprintf("%s %s min %s", fmtMetric(a.Metric, v), cmpWord(okMin, ">="), fmtMetric(a.Metric, *a.Min)))
	}
	if a.Max != nil {
		okMax := v <= *a.Max
		pass = pass && okMax
		checks = append(checks, fmt.Sprintf("%s %s max %s", fmtMetric(a.Metric, v), cmpWord(okMax, "<="), fmtMetric(a.Metric, *a.Max)))
	}
	if a.LessThan != "" {
		other, okM := byVariant[a.LessThan][a.Metric]
		okLT := okM && v < other
		pass = pass && okLT
		checks = append(checks, fmt.Sprintf("%s %s %s's %s", fmtMetric(a.Metric, v), cmpWord(okLT, "<"), a.LessThan, fmtMetric(a.Metric, other)))
	}
	verdict := "PASS"
	if !pass {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%s: %s %s: %s", verdict, vn, a.Metric, strings.Join(checks, ", ")), pass
}

func cmpWord(ok bool, op string) string {
	if ok {
		return op
	}
	return "violates " + op
}

// scenarioRunOne executes one (variant policy, seed) run: build the
// compiled cluster, install the fault plan, sample record staleness
// each probe period (fault windows exempt, like the chaos checker's
// I2), count per-backend routing, drive the workload, digest the
// outcome for the replay check.
func scenarioRunOne(cp *scenario.Compiled, policy string, seed int64) scenarioRun {
	c := cluster.New(cp.ClusterConfig(seed, policy))
	plan := cp.Plan(seed)
	down := trackDown(c.Eng, c.ApplyFaults(plan))

	perNode := make([]uint64, cp.Backends+1)
	if c.Dispatcher != nil {
		c.Dispatcher.OnRoute = func(b int) {
			if b >= 0 && b < len(perNode) {
				perNode[b]++
			}
		}
	}

	stale := &metrics.Sample{}
	ticker := sampleStaleness(c, plan, cp.Poll, down, func(_ sim.Time, _ int, age sim.Time, ok bool) {
		if ok {
			stale.Add(float64(age) / float64(cp.Poll))
		}
	})
	defer ticker.Stop()

	pool := c.StartRUBiS(cp.Clients, cp.Think, seed+11)
	c.Run(cp.Horizon)

	st := scenarioRun{
		served:   c.TotalServed(),
		timeouts: pool.Timeouts,
		respMean: pool.All.Mean(),
		respP99:  pool.All.Percentile(99),
		staleMax: stale.Max(),
		staleP99: stale.Percentile(99),
		perNode:  perNode,
	}
	if c.Dispatcher != nil {
		st.routed = c.Dispatcher.Routed
	}
	st.digest = fmt.Sprintf("served=%d routed=%d tmo=%d resp=%.6f/%.6f stale=%.6f/%.6f n=%d per=%v",
		st.served, st.routed, st.timeouts, st.respMean, st.respP99,
		st.staleMax, st.staleP99, stale.Count(), perNode)
	return st
}
