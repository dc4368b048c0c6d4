package experiments

import (
	"rdmamon/internal/core"
	"rdmamon/internal/metrics"
	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
	"rdmamon/internal/workload"
)

func init() {
	register("fig3", "probe latency vs back-end background threads (§5.1.1)",
		func(o Options) *Result { return Fig3(o).Result() })
}

// Fig3Data holds the Figure 3 series: mean probe latency (us) for each
// scheme as the number of background compute+communicate threads on
// the back-end grows.
type Fig3Data struct {
	Threads []int
	Mean    map[core.Scheme][]float64
}

// Fig3 reproduces §5.1.1: the monitoring latency of the socket schemes
// grows linearly with background load while the RDMA schemes stay
// flat.
func Fig3(o Options) *Fig3Data {
	threads := []int{0, 2, 4, 8, 12, 16}
	if o.Quick {
		threads = []int{0, 4, 16}
	}
	mean := grid(core.FourSchemes(), len(threads), 1, func(s core.Scheme, i, _ int) []float64 {
		return []float64{fig3Point(o, s, threads[i]).Mean()}
	})
	return &Fig3Data{Threads: threads, Mean: mean[0]}
}

// fig3Point measures one (scheme, threads) cell: a front-end node
// probes a back-end running n background threads that compute and
// exchange messages with a peer server node (both loaded, as in the
// paper's shared-server emulation).
func fig3Point(o Options, s core.Scheme, n int) *metrics.Sample {
	eng := sim.NewEngine(o.seed() + int64(s)*1000 + int64(n))
	fab := simnet.NewFabric(eng, simnet.Defaults())
	front := simos.NewNode(eng, 0, simos.NodeDefaults())
	fnic := fab.Attach(front)
	backend := simos.NewNode(eng, 1, simos.NodeDefaults())
	bnic := fab.Attach(backend)
	peer := simos.NewNode(eng, 2, simos.NodeDefaults())
	pnic := fab.Attach(peer)

	workload.StartEchoServers(backend, bnic, 2)
	workload.StartEchoServers(peer, pnic, 2)
	bg := workload.BackgroundDefaults()
	bg.Threads = n
	bg.Peer = 2
	workload.StartBackground(backend, bnic, bg)
	bg.Peer = 1
	workload.StartBackground(peer, pnic, bg)

	agent := core.StartAgent(backend, bnic, core.AgentConfig{Scheme: s})
	prober := core.StartMonitor(front, fnic, []*core.Agent{agent}, 20*sim.Millisecond).Probers[backend.ID]

	dur := 8 * sim.Second
	if o.Quick {
		dur = 2 * sim.Second
	}
	// Warm up half a second before trusting latencies.
	eng.RunUntil(500 * sim.Millisecond)
	prober.Latency = &metrics.Sample{}
	eng.RunUntil(500*sim.Millisecond + dur)
	return prober.Latency
}

// Result renders the figure as a table.
func (d *Fig3Data) Result() *Result {
	r := &Result{
		ID:      "fig3",
		Title:   "Monitoring latency (us, mean) vs background threads",
		Columns: []string{"threads"},
	}
	for _, s := range core.FourSchemes() {
		r.Columns = append(r.Columns, s.String())
	}
	for ti, th := range d.Threads {
		row := []string{f1(float64(th))}
		for _, s := range core.FourSchemes() {
			row = append(row, f1(d.Mean[s][ti]))
		}
		r.Rows = append(r.Rows, row)
	}
	r.Notes = append(r.Notes,
		"expected shape: Socket-* grow ~linearly with threads; RDMA-* flat (paper Fig 3)")
	return r
}
