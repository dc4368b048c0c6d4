package scenario

import (
	"math"
	"math/rand"

	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/faults"
	"rdmamon/internal/sim"
)

// RNG stream salts. Stagger jitter and event victim picks each draw
// from their own seeded stream so adding events never perturbs stagger
// offsets (and vice versa) for the same seed.
const (
	staggerSalt = 0x57a6_6e72
	eventSalt   = 0xe7e4_75c1
)

// DefaultSeed is the harness-wide base seed (the CLUSTER 2006
// conference date, matching experiments.Options).
const DefaultSeed = 20060925

// Compiled is a scenario lowered onto concrete harness values: every
// duration resolved for quick/full mode, the fleet expanded to
// per-backend specs, variants materialised. Per-seed artifacts
// (cluster.Config, faults.Plan) are produced on demand so one Compiled
// serves a whole seed sweep.
type Compiled struct {
	S *Scenario

	Horizon sim.Time
	Poll    sim.Time
	MRRepin sim.Time
	Clients int
	Think   sim.Time

	Scheme   core.Scheme
	Backends int
	// Counts[j] is how many back-ends template j expanded to; Specs is
	// the per-backend override list (nil for a homogeneous fleet).
	Counts []int
	Specs  []cluster.BackendSpec
	// Ranges[j] is template j's contiguous node-ID range [lo, hi].
	Ranges [][2]int

	Variants []Variant
}

// Compile resolves the scenario for full or quick mode. The scenario
// must be valid (Parse guarantees it; hand-built scenarios should call
// Validate first — Compile re-runs it to be safe).
func (s *Scenario) Compile(quick bool) (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cp := &Compiled{S: s}

	cp.Horizon = s.Horizon
	if quick && s.QuickHorizon > 0 {
		cp.Horizon = s.QuickHorizon
	}
	cp.Poll = s.Poll
	if cp.Poll <= 0 {
		cp.Poll = core.DefaultInterval
	}
	cp.MRRepin = s.MRRepin
	if quick && s.QuickMRRepin > 0 {
		cp.MRRepin = s.QuickMRRepin
	}
	cp.Clients = s.Workload.Clients
	if cp.Clients <= 0 {
		cp.Clients = 48
	}
	if quick && s.Workload.QuickClients > 0 {
		cp.Clients = s.Workload.QuickClients
	}
	cp.Think = s.Workload.Think
	if cp.Think <= 0 {
		cp.Think = 30 * sim.Millisecond
	}

	scheme := s.Scheme
	if scheme == "" {
		scheme = "rdma-sync"
	}
	var err error
	if cp.Scheme, err = core.ParseScheme(scheme); err != nil {
		return nil, err
	}

	cp.Backends = s.backends()
	if ts := s.Fleet.Templates; len(ts) > 0 {
		weights := make([]float64, len(ts))
		for i, t := range ts {
			weights[i] = t.Weight
		}
		cp.Counts = ExpandWeights(weights, cp.Backends)
		cp.Specs = make([]cluster.BackendSpec, 0, cp.Backends)
		lo := 1
		for j, t := range ts {
			cp.Ranges = append(cp.Ranges, [2]int{lo, lo + cp.Counts[j] - 1})
			lo += cp.Counts[j]
			for k := 0; k < cp.Counts[j]; k++ {
				cp.Specs = append(cp.Specs, cluster.BackendSpec{
					Template:      t.Name,
					CPUs:          t.CPUs,
					NICLatency:    t.NICLatency,
					AgentInterval: t.AgentInterval,
					Workers:       t.Workers,
				})
			}
		}
	}

	cp.Variants = s.Variants
	if len(cp.Variants) == 0 {
		cp.Variants = []Variant{{Name: "base", Policy: s.Policy}}
	}
	return cp, nil
}

// ExpandWeights apportions n slots over the weight vector with
// largest-remainder rounding: the result always sums to exactly n, and
// every positive weight with ideal share >= 1 gets at least one slot
// before any rounding bonus lands. Exported for the property tests.
func ExpandWeights(weights []float64, n int) []int {
	counts := make([]int, len(weights))
	if len(weights) == 0 || n <= 0 {
		return counts
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if !(total > 0) || math.IsInf(total, 0) {
		// Degenerate vectors (validation rejects them in real
		// scenarios): give everything to slot 0 rather than divide by it.
		counts[0] = n
		return counts
	}
	assigned := 0
	rem := make([]float64, len(weights))
	for i, w := range weights {
		ideal := float64(n) * w / total
		counts[i] = int(ideal)
		rem[i] = ideal - float64(counts[i])
		assigned += counts[i]
	}
	for assigned < n {
		// Next slot goes to the largest fractional remainder; ties break
		// toward the lower index, deterministically.
		best := 0
		for i := 1; i < len(rem); i++ {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
		assigned++
	}
	return counts
}

// BaseSeed resolves the seed-sweep base: an explicit override wins,
// then the scenario's own seed, then the harness default.
func (cp *Compiled) BaseSeed(override int64) int64 {
	if override != 0 {
		return override
	}
	if cp.S.Seed != 0 {
		return cp.S.Seed
	}
	return DefaultSeed
}

// SeedAt is the i-th point of the sweep (the same 7919 stride the
// legacy chaos/ha/aa experiments used).
func (cp *Compiled) SeedAt(base int64, i int) int64 { return base + int64(i)*7919 }

// Points is the number of seeded points to run (an Options.Seeds
// override wins; scenario default; 1 as the floor).
func (cp *Compiled) Points(override int) int {
	n := override
	if n <= 0 {
		n = cp.S.Seeds
	}
	if n <= 0 {
		n = 1
	}
	return n
}

// ClusterConfig lowers the scenario to a cluster.Config for one seed
// and dispatch policy (empty policy = the scenario default). Field
// defaulting mirrors the legacy chaos/ha/aa experiments exactly so the
// unified driver builds the same clusters they did. Only the aa
// checker's A1-A5 audit a concurrently dispatching tier, so `checks:
// aa` alone makes the replicas active-active.
func (cp *Compiled) ClusterConfig(seed int64, policy string) cluster.Config {
	if policy == "" {
		policy = cp.S.Policy
	}
	if policy == "" {
		policy = string(cluster.PolicyWebSphere)
	}
	pt := cp.S.ProbeTimeout
	if pt <= 0 {
		pt = cp.Poll
	}
	return cluster.Config{
		Backends:     cp.Backends,
		Scheme:       cp.Scheme,
		Poll:         cp.Poll,
		Seed:         seed,
		Policy:       cluster.PolicyName(policy),
		Gamma:        cp.S.Gamma,
		LocalWeight:  cp.S.LocalWeight,
		ProbeTimeout: pt,
		MRRepin:      cp.MRRepin,
		Replicas:     cp.S.Replicas,
		ActiveActive: cp.S.Checks == "aa",
		BackendSpecs: cp.Specs,
		Failover:     cp.S.Failover,
	}
}

// Plan compiles the fault side of the scenario for one seed: the
// stress block's seeded random plan (exactly faults.RandomPlan — the
// chaos/ha/aa equivalence golden tests depend on this being the whole
// story when no stagger or events exist), then stagger cold-start
// windows, then the timed event script. Deterministic: same (scenario,
// seed) in, same plan out.
func (cp *Compiled) Plan(seed int64) faults.Plan {
	var plan faults.Plan
	if st := cp.S.Stress; st != nil {
		cc := faults.ChaosConfig{
			Backends:        cp.Backends,
			Horizon:         cp.Horizon,
			Crashes:         st.Crashes,
			LinkFaults:      st.LinkFaults,
			Partitions:      st.Partitions,
			MRInvalidations: st.MRInvalidations,
			FECrashes:       st.FECrashes,
			FEFreezes:       st.FEFreezes,
			FEPartitions:    st.FEPartitions,
			ClaimStalls:     st.ClaimStalls,
		}
		if cp.S.Replicas > 1 {
			cc.FrontEnds = cp.S.FrontEndIDs()
			cc.Witness = cp.S.WitnessID()
		}
		plan = faults.RandomPlan(seed, cc)
	} else {
		plan = faults.Plan{Seed: seed}
	}

	if sg := cp.S.Stagger; sg != nil {
		rng := rand.New(rand.NewSource(seed ^ staggerSalt))
		for i := 1; i <= cp.Backends; i++ {
			off := sim.Time(i-1) * sg.Offset
			if sg.Jitter > 0 {
				off += sim.Time(rng.Int63n(int64(sg.Jitter)))
			}
			if off <= 0 {
				continue // the first node (no offset) is simply up from t=0
			}
			plan.Crashes = append(plan.Crashes, faults.Crash{Node: i, At: 0, RestartAt: off})
		}
	}

	if len(cp.S.Events) > 0 {
		rng := rand.New(rand.NewSource(seed ^ eventSalt))
		for _, ev := range cp.S.Events {
			node := cp.pickVictim(ev, rng)
			switch ev.Action {
			case "crash":
				plan.Crashes = append(plan.Crashes, faults.Crash{
					Node: node, At: ev.At, RestartAt: ev.At + ev.Duration,
				})
			case "freeze":
				plan.Freezes = append(plan.Freezes, faults.Freeze{
					Node: node, At: ev.At, Until: ev.At + ev.Duration,
				})
			case "mr-invalidate":
				plan.MRInvalidations = append(plan.MRInvalidations, faults.MRInvalidation{
					Node: node, At: ev.At,
				})
			case "partition":
				plan.Partitions = append(plan.Partitions, faults.Partition{
					Start: ev.At, End: ev.At + ev.Duration,
					A: []int{0}, B: []int{node},
				})
			case "link":
				drop := ev.Drop
				if drop == 0 {
					drop = 0.5
				}
				plan.Links = append(plan.Links, faults.LinkFault{
					From: 0, To: node,
					Start: ev.At, End: ev.At + ev.Duration,
					Drop: drop,
				})
			}
		}
	}
	return plan
}

// pickVictim resolves an event's target back-end. Explicit nodes burn
// no draws; picks consume exactly one template draw (weighted only)
// plus one node draw, so scripts replay bit-identically and removing
// one event shifts later picks predictably.
func (cp *Compiled) pickVictim(ev Event, rng *rand.Rand) int {
	if ev.Node != 0 {
		return ev.Node
	}
	lo, hi := 1, cp.Backends
	if ev.Template != "" {
		lo, hi = cp.templateRange(ev.Template)
	} else if ev.Pick == "weighted" && len(cp.Ranges) > 0 {
		// Weighted: draw a template proportionally to its expanded node
		// count, then uniform within it. (With contiguous ranges this
		// equals a uniform node draw, but the two-stage form keeps the
		// draw count stable if expansion ever becomes non-contiguous.)
		total := 0
		for _, c := range cp.Counts {
			total += c
		}
		j, pickAt := 0, rng.Intn(total)
		for acc := 0; j < len(cp.Counts); j++ {
			acc += cp.Counts[j]
			if pickAt < acc {
				break
			}
		}
		lo, hi = cp.Ranges[j][0], cp.Ranges[j][1]
	}
	if hi < lo {
		return lo // empty template expansion: degenerate but safe
	}
	return lo + rng.Intn(hi-lo+1)
}

// templateRange returns template name's contiguous node-ID range.
func (cp *Compiled) templateRange(name string) (lo, hi int) {
	for j, t := range cp.S.Fleet.Templates {
		if t.Name == name {
			return cp.Ranges[j][0], cp.Ranges[j][1]
		}
	}
	return 1, cp.Backends
}

// TemplateOf maps a back-end node ID to its template name ("" for a
// homogeneous fleet).
func (cp *Compiled) TemplateOf(node int) string {
	i := node - 1
	if i >= 0 && i < len(cp.Specs) {
		return cp.Specs[i].Template
	}
	return ""
}
