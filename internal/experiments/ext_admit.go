package experiments

import (
	"rdmamon/internal/admission"
	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/sim"
)

func init() {
	register("admit", "extension: admission control quality vs monitoring scheme (paper §1 use case)",
		func(o Options) *Result { return Admit(o).Result() })
}

// AdmitData holds admission-control outcomes per scheme: how many
// requests the cluster admitted, how many of those met the latency
// objective, and how many were needlessly rejected.
type AdmitData struct {
	Schemes  []core.Scheme
	Admitted []uint64
	Rejected []uint64
	Served   []uint64
	GoodPut  []uint64  // served within the SLA
	P99      []float64 // of served requests, ms
}

// AdmitSLA is the latency objective used for goodput, in ms.
const AdmitSLA = 100.0

// Admit runs an overloaded, noisy cluster behind an admission
// controller fed by each scheme. Accurate monitoring admits more
// requests and still keeps them within the objective — the paper's
// "number of requests the cluster-system can admit" framing.
func Admit(o Options) *AdmitData {
	schemes := core.Schemes()
	d := &AdmitData{
		Schemes:  schemes,
		Admitted: make([]uint64, len(schemes)),
		Rejected: make([]uint64, len(schemes)),
		Served:   make([]uint64, len(schemes)),
		GoodPut:  make([]uint64, len(schemes)),
		P99:      make([]float64, len(schemes)),
	}
	forEach(len(schemes), func(i int) {
		s := schemes[i]
		c := cluster.New(cluster.Config{
			Backends:    6,
			Scheme:      s,
			Seed:        o.seed() + 300,
			Policy:      cluster.PolicyWebSphere,
			LocalWeight: -1,
			Gamma:       4,
		})
		ctl := c.EnableAdmission(admission.Config{Threshold: 0.7, Weights: core.WeightsFor(s)})
		c.StartTenantNoise(o.seed() + 301)
		pool := c.StartRUBiS(256, 25*sim.Millisecond, o.seed()+302)
		dur := 25 * sim.Second
		if o.Quick {
			dur = 6 * sim.Second
		}
		c.Run(2 * sim.Second)
		pool.ResetStats()
		admitted0, rejected0 := ctl.Admitted, ctl.Rejected
		c.Run(dur)
		d.Admitted[i] = ctl.Admitted - admitted0
		d.Rejected[i] = ctl.Rejected - rejected0
		d.Served[i] = pool.Completed
		for _, rt := range pool.All.Values() {
			if rt <= AdmitSLA {
				d.GoodPut[i]++
			}
		}
		d.P99[i] = pool.All.Percentile(99)
	})
	return d
}

// Result renders the extension table.
func (d *AdmitData) Result() *Result {
	r := &Result{
		ID:      "admit",
		Title:   "Admission control: requests admitted and served within 100ms SLA",
		Columns: []string{"scheme", "admitted", "rejected", "served", "goodput", "p99(ms)"},
	}
	for i, s := range d.Schemes {
		r.Rows = append(r.Rows, []string{
			s.String(),
			f1(float64(d.Admitted[i])), f1(float64(d.Rejected[i])),
			f1(float64(d.Served[i])), f1(float64(d.GoodPut[i])), f1(d.P99[i]),
		})
	}
	r.Notes = append(r.Notes,
		"extension (paper §1): accurate monitoring admits more requests without violating the objective")
	return r
}
