package experiments

import (
	"fmt"

	"rdmamon/internal/core"
	"rdmamon/internal/httpsim"
	"rdmamon/internal/loadbalance"
	"rdmamon/internal/metrics"
	"rdmamon/internal/reconfig"
	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
	"rdmamon/internal/wire"
	"rdmamon/internal/workload"
)

func init() {
	register("reconfig", "extension: monitoring-driven node reconfiguration between two services (paper §7 future work)",
		func(o Options) *Result { return Reconfig(o).Result() })
}

// ReconfigRow summarizes one configuration of the reconfiguration
// experiment.
type ReconfigRow struct {
	Name       string
	Served     uint64
	P95        float64
	Migrations uint64
}

// ReconfigData compares reconfiguration driven by each scheme against
// a static assignment.
type ReconfigData struct {
	Rows []ReconfigRow
}

// Reconfig hosts two services on 8 nodes (starting 4/4) and alternates
// which service carries a surge every few seconds. The controller
// migrates nodes toward the surging service; how well it tracks the
// phases is bounded by monitoring accuracy.
func Reconfig(o Options) *ReconfigData {
	configs := []struct {
		name   string
		scheme core.Scheme
		ctl    bool
	}{
		{"static (no reconfig)", core.RDMASync, false},
		{"Socket-Async", core.SocketAsync, true},
		{"RDMA-Async", core.RDMAAsync, true},
		{"RDMA-Sync", core.RDMASync, true},
	}
	d := &ReconfigData{Rows: make([]ReconfigRow, len(configs))}
	forEach(o, len(configs), func(i int) {
		d.Rows[i] = reconfigPoint(o, configs[i].name, configs[i].scheme, configs[i].ctl)
	})
	return d
}

func reconfigPoint(o Options, name string, scheme core.Scheme, withCtl bool) ReconfigRow {
	eng := sim.NewEngine(o.seed() + 500)
	fab := simnet.NewFabric(eng, simnet.Defaults())
	front := simos.NewNode(eng, 0, simos.NodeDefaults())
	fnic := fab.Attach(front)

	const nBack = 8
	var agents []*core.Agent
	for i := 1; i <= nBack; i++ {
		n := simos.NewNode(eng, i, simos.NodeDefaults())
		nic := fab.Attach(n)
		httpsim.StartServer(n, nic, httpsim.ServerDefaults())
		agents = append(agents, core.StartAgent(n, nic, core.AgentConfig{Scheme: scheme}))
	}
	mon := core.StartMonitor(front, fnic, agents, core.DefaultInterval)
	source := func(b int) (wire.LoadRecord, bool) {
		if rec, _, ok := mon.Latest(b); ok {
			return *rec, true
		}
		return wire.LoadRecord{}, false
	}

	// Two services, each with its own dispatcher + policy over its
	// current group.
	groups := &reconfig.Groups{A: []int{1, 2, 3, 4}, B: []int{5, 6, 7, 8}}
	mkPolicy := func() *loadbalance.WeightedProportional {
		return &loadbalance.WeightedProportional{
			View:  loadbalance.View{Weights: core.WeightsFor(scheme), Source: source, Rng: eng.Rand()},
			Gamma: 4,
		}
	}
	polA, polB := mkPolicy(), mkPolicy()
	apply := func() {
		polA.Backends = append([]int(nil), groups.A...)
		polB.Backends = append([]int(nil), groups.B...)
	}
	apply()
	httpsim.StartDispatcherOn(front, fnic, polA, "dispatch-a")
	httpsim.StartDispatcherOn(front, fnic, polB, "dispatch-b")

	var ctl *reconfig.Controller
	if withCtl {
		ctl = reconfig.New(eng, reconfig.Config{Weights: core.WeightsFor(scheme)}, source, groups, apply)
	}

	mix := workload.NewMix(workload.RUBiSMix())
	mkPool := func(port string, clients int, ext int, seed int64) *workload.ClientPool {
		return workload.StartClients(fab, workload.ClientPoolConfig{
			Clients:   clients,
			ThinkMean: 40 * sim.Millisecond,
			FrontEnd:  0,
			Port:      port,
			ExtBase:   ext,
			Gen:       workload.MixGenerator(mix),
			Seed:      seed,
		})
	}
	baseA := mkPool("dispatch-a", 48, -1, o.seed()+501)
	baseB := mkPool("dispatch-b", 48, -100, o.seed()+502)
	surgeA := mkPool("dispatch-a", 128, -200, o.seed()+503)
	surgeB := mkPool("dispatch-b", 128, -400, o.seed()+504)
	surgeB.Pause()

	// Alternate the surge every phase.
	phase := 4 * sim.Second
	aSurging := true
	eng.NewTicker(phase, func() {
		aSurging = !aSurging
		if aSurging {
			surgeA.Resume()
			surgeB.Pause()
		} else {
			surgeA.Pause()
			surgeB.Resume()
		}
	})

	dur := 30 * sim.Second
	if o.Quick {
		dur = 10 * sim.Second
	}
	eng.RunUntil(dur)

	total := baseA.Completed + baseB.Completed + surgeA.Completed + surgeB.Completed
	var m metrics.Sample
	for _, pool := range []*workload.ClientPool{baseA, baseB, surgeA, surgeB} {
		m.AddAll(&pool.All)
	}
	served, p95 := total, m.Percentile(95)
	row := ReconfigRow{Name: name, Served: served, P95: p95}
	if ctl != nil {
		row.Migrations = ctl.Migrations
	}
	return row
}

// Result renders the extension table.
func (d *ReconfigData) Result() *Result {
	r := &Result{
		ID:      "reconfig",
		Title:   "Dynamic reconfiguration between two services with alternating surges",
		Columns: []string{"configuration", "served", "p95(ms)", "migrations"},
	}
	for _, row := range d.Rows {
		r.Rows = append(r.Rows, []string{
			row.Name, fmt.Sprint(row.Served), f1(row.P95), fmt.Sprint(row.Migrations),
		})
	}
	r.Notes = append(r.Notes,
		"extension (paper §7): reconfiguration driven by accurate monitoring tracks surges; static assignment and stale monitoring lag")
	return r
}
