// Package scenario is the declarative layer over the simulation
// harness: a YAML/JSON schema describing a fleet (optionally
// heterogeneous, via weighted templates), a workload, fault pressure
// (seeded stress blocks and/or explicit timed event scripts), dispatch
// variants to compare, and pass/fail assertions — plus a deterministic
// compiler that lowers a scenario onto the existing building blocks:
// cluster.Config, faults.Plan, and the workload clients.
//
// Design rules, in priority order:
//
//  1. Determinism. Compilation draws randomness only from seeded
//     streams derived from the run seed, so the same (scenario, seed)
//     pair always produces the same cluster config and fault plan.
//     Golden digest tests pin this.
//  2. Equivalence. The built-in chaos, ha and aa scenarios compile to
//     bit-identical faults.Plan values to the Go-coded experiments
//     they replaced — same ChaosConfig, same RNG stream.
//  3. Fuzz safety. Parse and Validate reject malformed input with
//     errors; they never panic, whatever the bytes.
package scenario

import (
	"fmt"
	"sort"
	"strings"

	"rdmamon/examples/scenarios"
	"rdmamon/internal/core"
	"rdmamon/internal/sim"
)

// Hard caps keeping fuzzed and hand-written scenarios inside what one
// simulation engine can reasonably run.
const (
	maxBackends = 16384
	maxSeeds    = 64
	maxHorizon  = 10 * 60 * sim.Second
	maxEvents   = 256
	maxTemplate = 64
	maxVariants = 8
	maxAsserts  = 64
	maxStress   = 64
	maxClients  = 1 << 16
)

// Scenario is the parsed schema. Each field's scn tag is its key in a
// scenario file; the tagged structs below are the whole schema, which
// one reflective walk decodes and encodes (parse.go). Durations are
// sim.Time nanoseconds; zero means "unset, use the default" except where
// validation requires a value.
type Scenario struct {
	Name        string `scn:"name"`
	Description string `scn:"description"`

	// Seed is the base run seed (0 = the harness default); Seeds is
	// how many seeded points to run (0 = 1; the chaos/ha/aa checkers
	// default to 5 like their legacy experiments).
	Seed  int64 `scn:"seed"`
	Seeds int   `scn:"seeds"`

	// Horizon is the simulated run length (required). QuickHorizon,
	// when set, replaces it under -quick.
	Horizon      sim.Time `scn:"horizon"`
	QuickHorizon sim.Time `scn:"quick_horizon"`

	// Poll is the probe period T (0 = the paper default, 50ms).
	Poll sim.Time `scn:"poll"`

	// Scheme is the monitoring scheme name, core.ParseScheme syntax
	// ("" = rdma-sync). Policy is the dispatch policy ("" =
	// websphere); variants override it per run.
	Scheme string `scn:"scheme"`
	Policy string `scn:"policy"`

	// Gamma and LocalWeight tune the WebSphere-style load index and
	// local-signal blend (0 = cluster defaults).
	Gamma       float64 `scn:"gamma"`
	LocalWeight float64 `scn:"local_weight"`

	// ProbeTimeout bounds one probe (0 = Poll). MRRepin is the
	// re-registration delay after an MR invalidation; QuickMRRepin
	// replaces it under -quick.
	ProbeTimeout sim.Time `scn:"probe_timeout"`
	MRRepin      sim.Time `scn:"mr_repin"`
	QuickMRRepin sim.Time `scn:"quick_mr_repin"`

	// Failover arms the per-backend RDMA->socket breaker. Replicas
	// (>1) builds the HA front-end tier.
	Failover bool `scn:"failover"`
	Replicas int  `scn:"replicas"`

	// Checks selects a built-in invariant checker: "" (generic
	// metrics + assertions), "chaos" (I1-I6), "ha" (H1-H6) or "aa"
	// (A1-A5, which also makes the replicated tier active-active).
	Checks string `scn:"checks"`

	Fleet    Fleet    `scn:"fleet"`
	Workload Workload `scn:"workload"`
	Stagger  *Stagger `scn:"stagger"`
	Events   []Event  `scn:"events"`
	Stress   *Stress  `scn:"stress"`

	Variants   []Variant   `scn:"variants"`
	Assertions []Assertion `scn:"assertions"`
}

// Fleet sizes the back-end tier. Templates, when present, make it
// heterogeneous: weights are expanded to per-template node counts
// summing exactly to Backends (largest-remainder rounding), assigned
// as contiguous ID ranges in template order.
type Fleet struct {
	Backends  int        `scn:"backends"`
	Templates []Template `scn:"templates"`
}

// Template is one hardware class within a heterogeneous fleet. Zero
// fields inherit the cluster defaults.
type Template struct {
	Name   string  `scn:"name"`
	Weight float64 `scn:"weight"`
	// CPUs overrides the node's CPU count (1..8).
	CPUs int `scn:"cpus"`
	// Workers overrides the web server's worker pool size.
	Workers int `scn:"workers"`
	// NICLatency adds one-way fabric latency to every operation
	// touching the node.
	NICLatency sim.Time `scn:"nic_latency"`
	// AgentInterval overrides the monitoring agent's refresh period.
	AgentInterval sim.Time `scn:"agent_interval"`
}

// Stagger cold-starts the fleet: back-end i (1-based) comes up at
// (i-1)*Offset plus a seeded jitter draw in [0, Jitter). Compiled to
// At-zero crash windows, so restart handling is exercised from t=0.
type Stagger struct {
	Offset sim.Time `scn:"offset"`
	Jitter sim.Time `scn:"jitter"`
}

// Workload drives client load. Kind is "rubis" (the paper's workload;
// the only kind today — the field exists so new generators are a
// schema change, not a breaking one).
type Workload struct {
	Kind         string   `scn:"kind"`
	Clients      int      `scn:"clients"`
	QuickClients int      `scn:"quick_clients"`
	Think        sim.Time `scn:"think"`
}

// Event is one entry of a timed fault script. Exactly one of Node or
// Pick selects the victim; Template (optional, with Pick) restricts
// the draw to one template's nodes.
type Event struct {
	At       sim.Time `scn:"at"`
	Action   string   `scn:"action"` // crash, freeze, mr-invalidate, partition, link
	Node     int      `scn:"node"`   // explicit back-end ID (1-based)
	Pick     string   `scn:"pick"`   // "random" (uniform) or "weighted" (by template weight)
	Template string   `scn:"template"`
	Duration sim.Time `scn:"duration"` // window length; restart delay for crash
	Drop     float64  `scn:"drop"`     // link only: forward drop probability
}

// Stress bounds a seeded random fault plan (faults.RandomPlan). All
// counts are explicit here — scenario files say what they mean — but
// compile through ChaosConfig's defaulting, so 2/2/1/2 (+1/1/1
// front-end) reproduces the legacy zero-count plans bit-identically.
type Stress struct {
	Crashes         int `scn:"crashes"`
	LinkFaults      int `scn:"link_faults"`
	Partitions      int `scn:"partitions"`
	MRInvalidations int `scn:"mr_invalidations"`
	FECrashes       int `scn:"fe_crashes"`
	FEFreezes       int `scn:"fe_freezes"`
	FEPartitions    int `scn:"fe_partitions"`
	ClaimStalls     int `scn:"claim_stalls"`
}

// Variant is one dispatch configuration to run and compare; every
// variant sees the same seeds, fleet, workload and fault plan.
type Variant struct {
	Name   string `scn:"name"`
	Policy string `scn:"policy"`
}

// Assertion is a pass/fail threshold on a reported metric. At least
// one of Min, Max or LessThan must be set; LessThan names another
// variant whose value of the same metric must be strictly larger.
type Assertion struct {
	Metric   string   `scn:"metric"`
	Variant  string   `scn:"variant"`
	Min      *float64 `scn:"min"`
	Max      *float64 `scn:"max"`
	LessThan string   `scn:"less_than"`
}

// Validate checks the scenario against the schema rules. It returns
// every problem found, never panics, and is run by Parse — a Scenario
// obtained from Parse is always valid.
func (s *Scenario) Validate() error {
	var errs []string
	bad := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }

	if s.Name == "" {
		bad("name: required")
	}
	if s.Seeds < 0 || s.Seeds > maxSeeds {
		bad("seeds: %d out of range [0, %d]", s.Seeds, maxSeeds)
	}
	if s.Horizon <= 0 {
		bad("horizon: required and positive")
	} else if s.Horizon > maxHorizon {
		bad("horizon: %v exceeds the %v cap", s.Horizon, maxHorizon)
	}
	if s.QuickHorizon < 0 || s.QuickHorizon > maxHorizon {
		bad("quick_horizon: out of range")
	}
	for _, d := range []struct {
		name string
		v    sim.Time
	}{{"poll", s.Poll}, {"probe_timeout", s.ProbeTimeout}, {"mr_repin", s.MRRepin}, {"quick_mr_repin", s.QuickMRRepin}} {
		if d.v < 0 || d.v > maxHorizon {
			bad("%s: out of range", d.name)
		}
	}
	if s.Scheme != "" {
		if _, err := core.ParseScheme(s.Scheme); err != nil {
			bad("scheme: unknown %q", s.Scheme)
		}
	}
	if s.Policy != "" && !validPolicy(s.Policy) {
		bad("policy: unknown %q", s.Policy)
	}
	if s.Replicas < 0 || s.Replicas > 16 {
		bad("replicas: %d out of range [0, 16]", s.Replicas)
	}
	switch s.Checks {
	case "", "chaos", "ha", "aa":
	default:
		bad("checks: unknown %q (want chaos, ha, aa, or empty)", s.Checks)
	}
	if s.Checks == "chaos" && !s.Failover {
		bad("checks: chaos requires failover: true (I3 audits the breaker)")
	}
	if (s.Checks == "ha" || s.Checks == "aa") && s.Replicas < 2 {
		bad("checks: %s requires replicas >= 2", s.Checks)
	}

	s.validateFleet(bad)
	s.validateWorkload(bad)
	s.validateStagger(bad)
	s.validateEvents(bad)
	s.validateStress(bad)
	s.validateVariants(bad)
	s.validateAssertions(bad)

	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("scenario %q: %s", s.Name, strings.Join(errs, "; "))
}

func validPolicy(p string) bool {
	switch p {
	case "websphere", "least-load", "round-robin", "random":
		return true
	}
	return false
}

func (s *Scenario) validateFleet(bad func(string, ...any)) {
	f := s.Fleet
	if f.Backends < 0 || f.Backends > maxBackends {
		bad("fleet.backends: %d out of range [0, %d]", f.Backends, maxBackends)
	}
	if len(f.Templates) > maxTemplate {
		bad("fleet.templates: %d exceeds the %d cap", len(f.Templates), maxTemplate)
	}
	seen := map[string]bool{}
	for i, t := range f.Templates {
		at := fmt.Sprintf("fleet.templates[%d]", i)
		if t.Name == "" {
			bad("%s.name: required", at)
		} else if seen[t.Name] {
			bad("%s.name: duplicate template %q", at, t.Name)
		}
		seen[t.Name] = true
		if !(t.Weight > 0) { // rejects zero, negatives and NaN alike
			bad("%s.weight: must be positive, got %v", at, t.Weight)
		}
		if t.CPUs < 0 || t.CPUs > 8 {
			bad("%s.cpus: %d out of range [0, 8]", at, t.CPUs)
		}
		if t.Workers < 0 || t.Workers > 1024 {
			bad("%s.workers: %d out of range [0, 1024]", at, t.Workers)
		}
		if t.NICLatency < 0 || t.NICLatency > sim.Second {
			bad("%s.nic_latency: out of range [0, 1s]", at)
		}
		if t.AgentInterval < 0 || t.AgentInterval > maxHorizon {
			bad("%s.agent_interval: out of range", at)
		}
	}
}

func (s *Scenario) validateWorkload(bad func(string, ...any)) {
	w := s.Workload
	switch w.Kind {
	case "", "rubis":
	default:
		bad("workload.kind: unknown %q (want rubis)", w.Kind)
	}
	if w.Clients < 0 || w.Clients > maxClients {
		bad("workload.clients: %d out of range", w.Clients)
	}
	if w.QuickClients < 0 || w.QuickClients > maxClients {
		bad("workload.quick_clients: %d out of range", w.QuickClients)
	}
	if w.Think < 0 || w.Think > maxHorizon {
		bad("workload.think: out of range")
	}
}

func (s *Scenario) validateStagger(bad func(string, ...any)) {
	sg := s.Stagger
	if sg == nil {
		return
	}
	if sg.Offset <= 0 {
		bad("stagger.offset: must be positive")
	}
	if sg.Jitter < 0 || sg.Jitter > maxHorizon {
		bad("stagger.jitter: out of range")
	}
	if s.Horizon > 0 && sg.Offset > 0 {
		last := sim.Time(s.backends()-1)*sg.Offset + sg.Jitter
		if last >= s.Horizon {
			bad("stagger: last cold-start at %v is past the horizon %v", last, s.Horizon)
		}
	}
}

func (s *Scenario) validateEvents(bad func(string, ...any)) {
	if len(s.Events) > maxEvents {
		bad("events: %d exceeds the %d cap", len(s.Events), maxEvents)
		return
	}
	prev := sim.Time(-1)
	for i, ev := range s.Events {
		at := fmt.Sprintf("events[%d]", i)
		if ev.At < 0 {
			bad("%s.at: negative", at)
		}
		if ev.At < prev {
			bad("%s.at: %v before the previous event at %v (scripts must be time-ordered)", at, ev.At, prev)
		}
		prev = ev.At
		if s.Horizon > 0 && ev.At >= s.Horizon {
			bad("%s.at: %v is past the horizon %v", at, ev.At, s.Horizon)
		}
		switch ev.Action {
		case "crash", "freeze", "partition", "link":
			if ev.Duration <= 0 {
				bad("%s.duration: required and positive for action %q", at, ev.Action)
			}
		case "mr-invalidate":
			if ev.Duration != 0 {
				bad("%s.duration: not meaningful for mr-invalidate", at)
			}
		case "":
			bad("%s.action: required", at)
		default:
			bad("%s.action: unknown %q", at, ev.Action)
		}
		if ev.Duration < 0 || ev.Duration > maxHorizon {
			bad("%s.duration: out of range", at)
		}
		switch {
		case ev.Node != 0 && ev.Pick != "":
			bad("%s: node and pick are mutually exclusive", at)
		case ev.Node == 0 && ev.Pick == "":
			bad("%s: one of node or pick is required", at)
		case ev.Node != 0 && (ev.Node < 1 || ev.Node > s.backends()):
			bad("%s.node: %d outside the fleet [1, %d]", at, ev.Node, s.backends())
		case ev.Pick != "" && ev.Pick != "random" && ev.Pick != "weighted":
			bad("%s.pick: unknown %q (want random or weighted)", at, ev.Pick)
		}
		if ev.Template != "" {
			if ev.Pick == "" {
				bad("%s.template: only meaningful with pick", at)
			}
			if !s.hasTemplate(ev.Template) {
				bad("%s.template: unknown template %q", at, ev.Template)
			}
		}
		if ev.Drop != 0 && ev.Action != "link" {
			bad("%s.drop: only meaningful for link events", at)
		}
		if ev.Drop < 0 || ev.Drop > 1 {
			bad("%s.drop: %v outside [0, 1]", at, ev.Drop)
		}
	}
}

func (s *Scenario) validateStress(bad func(string, ...any)) {
	st := s.Stress
	if st == nil {
		return
	}
	counts := []struct {
		name string
		v    int
	}{
		{"crashes", st.Crashes}, {"link_faults", st.LinkFaults},
		{"partitions", st.Partitions}, {"mr_invalidations", st.MRInvalidations},
		{"fe_crashes", st.FECrashes}, {"fe_freezes", st.FEFreezes},
		{"fe_partitions", st.FEPartitions}, {"claim_stalls", st.ClaimStalls},
	}
	for _, c := range counts {
		if c.v < 0 || c.v > maxStress {
			bad("stress.%s: %d out of range [0, %d]", c.name, c.v, maxStress)
		}
	}
	if s.Replicas < 2 && (st.FECrashes != 0 || st.FEFreezes != 0 || st.FEPartitions != 0 || st.ClaimStalls != 0) {
		bad("stress: front-end fault counts need replicas >= 2")
	}
}

func (s *Scenario) validateVariants(bad func(string, ...any)) {
	if len(s.Variants) > maxVariants {
		bad("variants: %d exceeds the %d cap", len(s.Variants), maxVariants)
		return
	}
	seen := map[string]bool{}
	for i, v := range s.Variants {
		at := fmt.Sprintf("variants[%d]", i)
		if v.Name == "" {
			bad("%s.name: required", at)
		} else if seen[v.Name] {
			bad("%s.name: duplicate variant %q", at, v.Name)
		}
		seen[v.Name] = true
		if v.Policy != "" && !validPolicy(v.Policy) {
			bad("%s.policy: unknown %q", at, v.Policy)
		}
	}
}

func (s *Scenario) validateAssertions(bad func(string, ...any)) {
	if len(s.Assertions) > maxAsserts {
		bad("assertions: %d exceeds the %d cap", len(s.Assertions), maxAsserts)
		return
	}
	if len(s.Assertions) > 0 && s.Checks != "" {
		bad("assertions: not supported with checks: %s (its invariants are the assertions)", s.Checks)
	}
	names := s.variantNames()
	has := func(n string) bool {
		for _, v := range names {
			if v == n {
				return true
			}
		}
		return false
	}
	for i, a := range s.Assertions {
		at := fmt.Sprintf("assertions[%d]", i)
		if a.Metric == "" {
			bad("%s.metric: required", at)
		}
		if a.Variant != "" && !has(a.Variant) {
			bad("%s.variant: unknown variant %q", at, a.Variant)
		}
		if a.Min == nil && a.Max == nil && a.LessThan == "" {
			bad("%s: one of min, max or less_than is required", at)
		}
		if a.LessThan != "" {
			if !has(a.LessThan) {
				bad("%s.less_than: unknown variant %q", at, a.LessThan)
			} else if a.LessThan == a.resolvedVariant(names) {
				bad("%s.less_than: compares a variant to itself", at)
			}
		}
		if a.Min != nil && a.Max != nil && *a.Min > *a.Max {
			bad("%s: min %v exceeds max %v", at, *a.Min, *a.Max)
		}
	}
}

// resolvedVariant is the variant an assertion applies to: its Variant
// field, or the first variant when unset.
func (a Assertion) resolvedVariant(names []string) string {
	if a.Variant != "" {
		return a.Variant
	}
	if len(names) > 0 {
		return names[0]
	}
	return ""
}

// variantNames returns the resolved variant list ("base" when the
// scenario declares none).
func (s *Scenario) variantNames() []string {
	if len(s.Variants) == 0 {
		return []string{"base"}
	}
	out := make([]string, len(s.Variants))
	for i, v := range s.Variants {
		out[i] = v.Name
	}
	return out
}

// backends is the resolved fleet size (the cluster default when the
// scenario leaves it zero).
func (s *Scenario) backends() int {
	if s.Fleet.Backends <= 0 {
		return 8
	}
	return s.Fleet.Backends
}

func (s *Scenario) hasTemplate(name string) bool {
	for _, t := range s.Fleet.Templates {
		if t.Name == name {
			return true
		}
	}
	return false
}

// FrontEndIDs computes the node IDs the HA tier will occupy, without
// building a cluster: replica 0 shares node 0 with the base front-end,
// replicas 1..R-1 take Backends+1..Backends+R-1. Must match
// cluster.FrontEndIDs — a test pins the correspondence.
func (s *Scenario) FrontEndIDs() []int {
	if s.Replicas < 2 {
		return nil
	}
	ids := []int{0}
	for i := 1; i < s.Replicas; i++ {
		ids = append(ids, s.backends()+i)
	}
	return ids
}

// WitnessID is the claim-witness node ID for HA scenarios.
func (s *Scenario) WitnessID() int { return s.backends() + s.Replicas }

// MetricNames is the fixed part of the generic report's column order;
// per-template share_<name> columns follow, sorted.
func MetricNames() []string {
	return []string{"served", "routed", "timeouts", "resp_mean_ms", "resp_p99_ms", "stale_max_t", "stale_p99_t"}
}

// SortedShareMetrics returns share metric names for a template list.
func SortedShareMetrics(templates []Template) []string {
	out := make([]string, 0, len(templates))
	for _, t := range templates {
		out = append(out, "share_"+t.Name)
	}
	sort.Strings(out)
	return out
}

// BuiltinChaos is examples/scenarios/chaos.yaml, the declarative
// equivalent of the legacy Go-coded `-exp chaos` experiment: same
// cluster config, same ChaosConfig (the explicit 2/2/1/2 counts are
// exactly what withDefaults resolved the legacy zero counts to), so
// every seeded plan is bit-identical — the golden tests assert it.
func BuiltinChaos() *Scenario { return builtin("chaos.yaml") }

// BuiltinHA is examples/scenarios/ha.yaml, the declarative equivalent
// of the legacy `-exp ha` experiment (same plan stream: FE counts
// 1/1/1 are the resolved defaults for a 3-replica fleet).
func BuiltinHA() *Scenario { return builtin("ha.yaml") }

// BuiltinAA is examples/scenarios/aa.yaml, the declarative equivalent
// of the legacy `-exp aa` experiment: the same 4-replica active-active
// cluster and plan stream (FE counts 1/1/1 resolved as for ha, plus
// two claim stalls).
func BuiltinAA() *Scenario { return builtin("aa.yaml") }

// builtin parses one embedded curated file. The golden tests cover
// every builtin, so a failure here is a programming error.
func builtin(name string) *Scenario {
	src, err := scenarios.FS.ReadFile(name)
	if err != nil {
		panic(err)
	}
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}
