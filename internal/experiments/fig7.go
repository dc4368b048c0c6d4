package experiments

import (
	"fmt"

	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/sim"
	"rdmamon/internal/workload"
)

func init() {
	register("fig7", "throughput improvement vs Zipf alpha, RUBiS + Zipf co-hosted (§5.2.1)",
		func(o Options) *Result { return Fig7(o).Result() })
}

// Fig7Data holds total throughput (req/s) per scheme per alpha, and
// the improvement relative to Socket-Async.
type Fig7Data struct {
	Alphas     []float64
	Throughput map[core.Scheme][]float64
}

// Fig7 reproduces the co-hosted experiment: the cluster serves RUBiS
// and a Zipf static trace simultaneously; the Zipf trace's α controls
// how heterogeneous the document working set is. At low α many
// requests have very different resource demands, so accurate
// fine-grained monitoring routes around the heavy ones and wins most;
// at high α the load is self-similar and all schemes converge.
func Fig7(o Options) *Fig7Data {
	alphas := []float64{0.25, 0.5, 0.75, 0.9}
	if o.Quick {
		alphas = []float64{0.25, 0.9}
	}
	tput := grid(core.Schemes(), len(alphas), quickReps(o), func(s core.Scheme, i, rep int) []float64 {
		return []float64{fig7Point(o, s, alphas[i], int64(rep))}
	})
	return &Fig7Data{Alphas: alphas, Throughput: tput[0]}
}

func fig7Point(o Options, s core.Scheme, alpha float64, rep int64) float64 {
	c := cluster.New(cluster.Config{
		Backends:    8,
		Scheme:      s,
		Poll:        core.DefaultInterval,
		Seed:        o.seed() + rep*7919,
		Policy:      cluster.PolicyWebSphere,
		LocalWeight: -1,
		Gamma:       4,
	})
	c.StartTenantNoise(o.seed() + 23 + rep)
	rubis := c.StartRUBiS(128, 30*sim.Millisecond, o.seed()+11+rep)
	z := workload.NewZipfTrace(5000, alpha, o.seed()+13)
	zipf := c.StartZipf(z, 256, 20*sim.Millisecond, o.seed()+17+rep)
	warm := 2 * sim.Second
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

// Improvement returns (tput[s] - tput[SocketAsync]) / tput[SocketAsync]
// at alpha index ai.
func (d *Fig7Data) Improvement(s core.Scheme, ai int) float64 {
	base := d.Throughput[core.SocketAsync][ai]
	if base == 0 {
		return 0
	}
	return (d.Throughput[s][ai] - base) / base
}

// Result renders Figure 7.
func (d *Fig7Data) Result() *Result {
	r := &Result{
		ID:      "fig7",
		Title:   "Total throughput improvement over Socket-Async (RUBiS + Zipf)",
		Columns: []string{"alpha", "Socket-Async(req/s)"},
	}
	for _, s := range core.Schemes()[1:] {
		r.Columns = append(r.Columns, s.String())
	}
	for ai, a := range d.Alphas {
		row := []string{fmt.Sprintf("%.2f", a), f1(d.Throughput[core.SocketAsync][ai])}
		for _, s := range core.Schemes()[1:] {
			row = append(row, pct(d.Improvement(s, ai)))
		}
		r.Rows = append(r.Rows, row)
	}
	r.Notes = append(r.Notes,
		"expected shape: gains largest at small alpha and shrink toward alpha=0.9; e-RDMA-Sync >= RDMA-Sync > others (paper Fig 7)")
	return r
}
