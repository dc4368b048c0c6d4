package experiments

import (
	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/sim"
	"rdmamon/internal/workload"
)

func init() {
	register("fig9", "fine-grained vs coarse-grained monitoring: throughput vs granularity (§5.2.3)",
		func(o Options) *Result { return Fig9(o).Result() })
}

// Fig9Data holds total throughput (req/s) per scheme at each load-
// fetching granularity, for the co-hosted RUBiS + Zipf(0.5) workload.
type Fig9Data struct {
	GranularityMS []int
	Throughput    map[core.Scheme][]float64
}

// Fig9 reproduces §5.2.3, the paper's headline result: sweeping the
// load-fetching granularity from coarse (4096 ms) to fine (64 ms),
// RDMA-Sync's throughput keeps improving as monitoring gets finer —
// up to ~25% over the socket schemes at 64 ms — while the socket
// schemes gain nothing (their probes are too slow and too perturbing
// to exploit fine granularity). At coarse granularity all schemes
// converge.
func Fig9(o Options) *Fig9Data {
	gran := []int{64, 128, 256, 512, 1024, 2048, 4096}
	if o.Quick {
		gran = []int{64, 512, 4096}
	}
	tput := grid(core.FourSchemes(), len(gran), quickReps(o), func(s core.Scheme, i, rep int) []float64 {
		return []float64{fig9Point(o, s, gran[i], int64(rep))}
	})
	return &Fig9Data{GranularityMS: gran, Throughput: tput[0]}
}

func fig9Point(o Options, s core.Scheme, granMS int, rep int64) float64 {
	T := sim.Time(granMS) * sim.Millisecond
	c := cluster.New(cluster.Config{
		Backends:    8,
		Scheme:      s,
		Poll:        T,
		Seed:        o.seed() + 90 + rep*7919,
		Policy:      cluster.PolicyWebSphere,
		LocalWeight: -1,
		Gamma:       4,
	})
	c.StartTenantNoise(o.seed() + 94 + rep)
	rubis := c.StartRUBiS(128, 30*sim.Millisecond, o.seed()+91+rep)
	z := workload.NewZipfTrace(5000, 0.5, o.seed()+92)
	zipf := c.StartZipf(z, 256, 20*sim.Millisecond, o.seed()+93+rep)
	warm := 3 * sim.Second
	dur := 25 * sim.Second
	if o.Quick {
		warm = sim.Second
		dur = 6 * sim.Second
	}
	c.Run(warm)
	rubis.ResetStats()
	zipf.ResetStats()
	c.Run(dur)
	return rubis.Throughput() + zipf.Throughput()
}

// Result renders Figure 9.
func (d *Fig9Data) Result() *Result {
	r := &Result{
		ID:      "fig9",
		Title:   "Total throughput (req/s) vs load-fetching granularity (RUBiS + Zipf 0.5)",
		Columns: []string{"granularity(ms)"},
	}
	for _, s := range core.FourSchemes() {
		r.Columns = append(r.Columns, s.String())
	}
	for gi, g := range d.GranularityMS {
		row := []string{f1(float64(g))}
		for _, s := range core.FourSchemes() {
			row = append(row, f1(d.Throughput[s][gi]))
		}
		r.Rows = append(r.Rows, row)
	}
	r.Notes = append(r.Notes,
		"expected shape: RDMA-Sync throughput rises as granularity falls (best at 64ms); socket schemes flat or degrading; all comparable at >=1024ms (paper Fig 9)")
	return r
}
