package experiments

import (
	"fmt"

	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/faults"
	"rdmamon/internal/loadbalance"
	"rdmamon/internal/sim"
)

func init() {
	register("faults", "dispatch quality and probe errors under crashes, link flaps and MR invalidation",
		func(o Options) *Result { return Faults(o).Result() })
}

// FaultsPoint is one scheme's behaviour under the shared fault plan.
type FaultsPoint struct {
	Scheme        core.Scheme
	Throughput    float64 // completed req/s over the measured window
	ProbeErrRate  float64 // errored probes / total probes
	ClientTmo     uint64  // client-visible request timeouts
	ExcludedPicks uint64  // dispatch decisions shaped by quarantine
	DetectPeriods float64 // crash -> quarantined, in probe periods
	RecoverS      float64 // restart -> healthy again, in seconds
}

// FaultsData holds the per-scheme results.
type FaultsData struct {
	Points []FaultsPoint
}

// Faults runs the failure-hardening experiment: every scheme faces the
// same seeded fault plan — two back-ends crash and later restart, one
// link drops 30% of packets for a while, and one agent's memory
// region is invalidated mid-run — while a closed-loop RUBiS population
// keeps the cluster busy. The interesting contrast is the failure
// detection path: RDMA probes fail fast (transport timeout at the
// NIC), while socket probes must burn a full probe deadline per dead
// back-end per sweep, and every lost request packet costs the client
// an RTO. Accurate monitoring degrades gracefully; inaccurate
// monitoring amplifies the failure.
func Faults(o Options) *FaultsData {
	schemes := core.Schemes()
	d := &FaultsData{Points: make([]FaultsPoint, len(schemes))}
	forEach(len(schemes), func(i int) {
		d.Points[i] = faultsPoint(o, schemes[i])
	})
	return d
}

func faultsPoint(o Options, s core.Scheme) FaultsPoint {
	poll := core.DefaultInterval // 50ms
	crashAt := 5 * sim.Second
	restartAt := 12 * sim.Second
	flapStart, flapEnd := 8*sim.Second, 16*sim.Second
	mrAt := 10 * sim.Second
	dur := 24 * sim.Second
	clients := 96
	if o.Quick {
		crashAt, restartAt = 2*sim.Second, 5*sim.Second
		flapStart, flapEnd = 3*sim.Second, 6*sim.Second
		mrAt = 4 * sim.Second
		dur = 8 * sim.Second
		clients = 48
	}

	c := cluster.New(cluster.Config{
		Backends:     8,
		Scheme:       s,
		Poll:         poll,
		Seed:         o.seed(),
		Policy:       cluster.PolicyWebSphere,
		Gamma:        4,
		ProbeTimeout: poll,
	})
	plan := faults.Plan{
		Seed: o.seed(),
		Crashes: []faults.Crash{
			{Node: 3, At: crashAt, RestartAt: restartAt},
			{Node: 6, At: crashAt, RestartAt: restartAt},
		},
		Links: []faults.LinkFault{{
			From: 0, To: 5,
			Start: flapStart, End: flapEnd,
			Drop: 0.3,
		}},
		MRInvalidations: []faults.MRInvalidation{{Node: 2, At: mrAt}},
	}
	c.ApplyFaults(plan)
	c.StartTenantNoise(o.seed() + 23)
	pool := c.StartRUBiS(clients, 30*sim.Millisecond, o.seed()+11)

	// Timestamped health transitions for detection/recovery latency.
	var quarantinedAt, healthyAt sim.Time
	watch := c.Eng.NewTicker(poll/5, func() {
		now := c.Eng.Now()
		if quarantinedAt == 0 && now > crashAt &&
			c.Monitor.Health(3) == core.Quarantined && c.Monitor.Health(6) == core.Quarantined {
			quarantinedAt = now
		}
		if healthyAt == 0 && now > restartAt &&
			c.Monitor.Health(3) == core.Healthy && c.Monitor.Health(6) == core.Healthy {
			healthyAt = now
		}
	})
	defer watch.Stop()

	c.Run(dur)

	var probes, errs int
	for _, p := range c.Monitor.Probers {
		probes += int(p.Health.Successes + p.Health.Failures)
		errs += p.Errors
	}
	pt := FaultsPoint{Scheme: s}
	if probes > 0 {
		pt.ProbeErrRate = float64(errs) / float64(probes)
	}
	pt.Throughput = float64(c.TotalServed()) / (float64(dur) / float64(sim.Second))
	pt.ClientTmo = pool.Timeouts
	if wp, ok := c.Policy.(*loadbalance.WeightedProportional); ok {
		pt.ExcludedPicks = wp.ExcludedPicks
	}
	if quarantinedAt > crashAt {
		pt.DetectPeriods = float64(quarantinedAt-crashAt) / float64(poll)
	}
	if healthyAt > restartAt {
		pt.RecoverS = float64(healthyAt-restartAt) / float64(sim.Second)
	}
	return pt
}

// Result renders the faults table.
func (d *FaultsData) Result() *Result {
	r := &Result{
		ID:    "faults",
		Title: "Failure hardening: crashes + link flap + MR invalidation (seeded plan)",
		Columns: []string{"scheme", "tput(req/s)", "probe-err%", "client-tmo",
			"excl-picks", "detect(T)", "recover(s)"},
	}
	for _, p := range d.Points {
		r.Rows = append(r.Rows, []string{
			p.Scheme.String(),
			f1(p.Throughput),
			fmt.Sprintf("%.1f%%", p.ProbeErrRate*100),
			fmt.Sprintf("%d", p.ClientTmo),
			fmt.Sprintf("%d", p.ExcludedPicks),
			f1(p.DetectPeriods),
			f2(p.RecoverS),
		})
	}
	r.Notes = append(r.Notes,
		"expected shape: every scheme quarantines the crashed pair within ~3-4 probe periods (detect(T)) and re-admits after restart",
		"expected shape: RDMA schemes degrade gracefully (fast NIC-level timeouts keep the probe cycle tight); socket schemes amplify failures — each dead back-end stalls the sequential sweep for a full probe deadline and lost request packets cost clients RTO pile-ups")
	return r
}
