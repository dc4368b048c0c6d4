package experiments

import (
	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/metrics"
	"rdmamon/internal/sim"
	"rdmamon/internal/workload"
)

func init() {
	register("table1", "RUBiS per-query average and maximum response time (§5.2.1)",
		func(o Options) *Result { return Table1(o).Result() })
}

// Table1Data holds the RUBiS per-query response times for all five
// schemes, in milliseconds.
type Table1Data struct {
	Queries []string
	Avg     map[core.Scheme]map[string]float64
	Max     map[core.Scheme]map[string]float64
}

// Table1 reproduces the paper's Table 1: an 8-back-end cluster serves
// the RUBiS mix from 64 closed-loop clients; the dispatcher uses the
// WebSphere-style index fed by each monitoring scheme (T = 50 ms).
// Average times should be close across schemes, while maximum times
// collapse (up to ~90%) for the kernel-direct RDMA schemes, whose
// records neither go stale under load nor perturb the servers.
func Table1(o Options) *Table1Data {
	schemes := core.Schemes()
	qs := workload.QueryNames(workload.RUBiSMix())
	// Maxima are effectively single-sample statistics, so each scheme
	// runs over several seeds; the table reports the mean of the
	// per-run maxima (and the pooled average).
	m := grid(schemes, 1, quickReps(o), func(s core.Scheme, _, rep int) []float64 {
		o2 := o
		o2.Seed = o.seed() + int64(rep)*9973
		return table1Point(o2, s, qs)
	})
	d := &Table1Data{
		Queries: qs,
		Avg:     make(map[core.Scheme]map[string]float64),
		Max:     make(map[core.Scheme]map[string]float64),
	}
	for _, s := range schemes {
		d.Avg[s] = make(map[string]float64)
		d.Max[s] = make(map[string]float64)
		for qi, q := range qs {
			d.Avg[s][q], d.Max[s][q] = m[qi][s][0], m[len(qs)+qi][s][0]
		}
	}
	return d
}

// table1Point returns each query's average response time, then each
// one's maximum (0 for a query that never ran).
func table1Point(o Options, s core.Scheme, qs []string) []float64 {
	// The seed is identical across schemes so every scheme faces the
	// same arrival sequence; differences are causal, not sampling
	// noise.
	c := cluster.New(cluster.Config{
		Backends:    8,
		Scheme:      s,
		Poll:        core.DefaultInterval,
		Seed:        o.seed(),
		Policy:      cluster.PolicyWebSphere,
		LocalWeight: -1,
		Gamma:       4,
	})
	pool := c.StartRUBiS(256, 55*sim.Millisecond, o.seed()+7)
	fc := c.StartFlashCrowds(1500*sim.Millisecond, 40, 80, o.seed()+9)
	warm := 2 * sim.Second
	dur := 40 * sim.Second
	if o.Quick {
		warm = sim.Second
		dur = 8 * sim.Second
	}
	c.Run(warm)
	pool.ResetStats()
	fc.ResetStats()
	c.Run(dur)
	out := make([]float64, 2*len(qs))
	for qi, q := range qs {
		merged := &metrics.Sample{}
		merged.AddAll(pool.PerClass[q])
		merged.AddAll(fc.PerClass[q])
		if merged.Count() > 0 {
			out[qi], out[len(qs)+qi] = merged.Mean(), merged.Max()
		}
	}
	return out
}

// Result renders both halves of Table 1.
func (d *Table1Data) Result() *Result {
	r := &Result{
		ID:      "table1",
		Title:   "RUBiS response time (ms): average | maximum",
		Columns: []string{"query"},
	}
	schemes := core.Schemes()
	for _, s := range schemes {
		r.Columns = append(r.Columns, s.String())
	}
	for _, q := range d.Queries {
		row := []string{q + " avg"}
		for _, s := range schemes {
			row = append(row, f1(d.Avg[s][q]))
		}
		r.Rows = append(r.Rows, row)
	}
	for _, q := range d.Queries {
		row := []string{q + " max"}
		for _, s := range schemes {
			row = append(row, f1(d.Max[s][q]))
		}
		r.Rows = append(r.Rows, row)
	}
	r.Notes = append(r.Notes,
		"expected shape: averages close across schemes; maxima far lower for RDMA-Sync/e-RDMA-Sync (paper Table 1)")
	return r
}
