package experiments

import (
	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/ganglia"
	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
)

func init() {
	register("fig8", "RUBiS max response time with Ganglia fine-grained monitoring (§5.2.2)",
		func(o Options) *Result { return Fig8(o).Result() })
}

// Fig8Data holds maximum response times (ms) of the two tracked RUBiS
// queries for each scheme at each gmetric granularity.
type Fig8Data struct {
	GranularityMS []int
	MaxSearch     map[core.Scheme][]float64 // SearchItemsReg (paper Fig 8a)
	MaxBrowse     map[core.Scheme][]float64 // Browse (paper Fig 8b)
	P99Search     map[core.Scheme][]float64 // p99, far less noisy than max
	P99Browse     map[core.Scheme][]float64
}

// Fig8 reproduces §5.2.2: RUBiS runs while Ganglia's gmetric publishes
// fine-grained load collected through each scheme at granularity T.
// At 1-4 ms the socket schemes' back-end monitoring work (wakeups,
// /proc reads, replies) perturbs the web servers and inflates maximum
// response times; the RDMA schemes leave the servers untouched.
func Fig8(o Options) *Fig8Data {
	gran := []int{1, 4, 16, 64, 256, 1024, 4096}
	if o.Quick {
		gran = []int{1, 64, 1024}
	}
	m := grid(core.FourSchemes(), len(gran), quickReps(o), func(s core.Scheme, i, rep int) []float64 {
		o2 := o
		o2.Seed = o.seed() + int64(rep)*9973
		return fig8Point(o2, s, gran[i])
	})
	return &Fig8Data{GranularityMS: gran, MaxSearch: m[0], MaxBrowse: m[1], P99Search: m[2], P99Browse: m[3]}
}

// fig8Point returns the SearchItemsReg and Browse maxima, then their
// p99s.
func fig8Point(o Options, s core.Scheme, granMS int) []float64 {
	// As in the paper: the cluster itself is dispatched with
	// e-RDMA-Sync at the default T=50ms (the best configuration from
	// §5.2.1); what varies is the *gmetric* monitoring stack — a
	// second, independent deployment of scheme s at granularity T
	// feeding Ganglia.
	T := sim.Time(granMS) * sim.Millisecond
	c := cluster.New(cluster.Config{
		Backends:    8,
		Scheme:      core.ERDMASync,
		Poll:        core.DefaultInterval,
		Seed:        o.seed() + 80,
		Policy:      cluster.PolicyWebSphere,
		LocalWeight: -1,
		Gamma:       4,
	})
	// Deploy ganglia over the whole cluster (front-end first: it hosts
	// gmetric).
	nodes := append([]*simos.Node{c.Front}, c.Backends...)
	nics := append([]*simnet.NIC{c.FNIC}, c.BNICs...)
	g := ganglia.Deploy(c.Fab, nodes, nics, ganglia.Defaults())
	// The swept fine-grained metric stack, on its own port. The sweep
	// is over the *load-fetching* granularity (how often gmetric pulls
	// a metric); asynchronous agents keep their own default refresh.
	var gmAgents []*core.Agent
	for i, n := range c.Backends {
		gmAgents = append(gmAgents, core.StartAgent(n, c.BNICs[i], core.AgentConfig{
			Scheme: s, Interval: T, Port: "rmon-gm",
		}))
	}
	gmMon := core.StartMonitor(c.Front, c.FNIC, gmAgents, T)
	g.WireFineGrained(gmMon)
	// Status channel: health/transport transitions ride the same
	// gmetric path as the load records (change-driven, so a stable
	// cluster pays one packet per back-end).
	g.WireStatus(gmMon, 0)

	pool := c.StartRUBiS(256, 55*sim.Millisecond, o.seed()+81)
	warm := 2 * sim.Second
	dur := 20 * sim.Second
	if o.Quick {
		warm = sim.Second
		dur = 5 * sim.Second
	}
	c.Run(warm)
	pool.ResetStats()
	c.Run(dur)
	get := func(q string) (mx, p99 float64) {
		if smp := pool.PerClass[q]; smp != nil {
			return smp.Max(), smp.Percentile(99)
		}
		return 0, 0
	}
	maxS, p99S := get("SearchItemsReg")
	maxB, p99B := get("Browse")
	return []float64{maxS, maxB, p99S, p99B}
}

// Result renders both panels.
func (d *Fig8Data) Result() *Result {
	r := &Result{
		ID:      "fig8",
		Title:   "RUBiS max response time (ms) with Ganglia: SearchItemsReg | Browse",
		Columns: []string{"granularity(ms)"},
	}
	for _, s := range core.FourSchemes() {
		r.Columns = append(r.Columns, s.String()+" S")
	}
	for _, s := range core.FourSchemes() {
		r.Columns = append(r.Columns, s.String()+" B")
	}
	for gi, g := range d.GranularityMS {
		row := []string{f1(float64(g)) + " max"}
		for _, s := range core.FourSchemes() {
			row = append(row, f1(d.MaxSearch[s][gi]))
		}
		for _, s := range core.FourSchemes() {
			row = append(row, f1(d.MaxBrowse[s][gi]))
		}
		r.Rows = append(r.Rows, row)
	}
	for gi, g := range d.GranularityMS {
		row := []string{f1(float64(g)) + " p99"}
		for _, s := range core.FourSchemes() {
			row = append(row, f1(d.P99Search[s][gi]))
		}
		for _, s := range core.FourSchemes() {
			row = append(row, f1(d.P99Browse[s][gi]))
		}
		r.Rows = append(r.Rows, row)
	}
	r.Notes = append(r.Notes,
		"expected shape: socket schemes inflate max response times at 1-4ms granularity; RDMA schemes stay flat (paper Fig 8a/8b)")
	return r
}
