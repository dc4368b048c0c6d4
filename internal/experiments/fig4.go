package experiments

import (
	"rdmamon/internal/core"
	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
	"rdmamon/internal/workload"
)

func init() {
	register("fig4", "application slowdown vs monitoring granularity (§5.1.2)",
		func(o Options) *Result { return Fig4(o).Result() })
}

// Fig4Data holds the Figure 4 series: mean application delay
// normalized to execution time, for each scheme at each monitoring
// granularity.
type Fig4Data struct {
	GranularityMS []int
	Delay         map[core.Scheme][]float64 // normalized (0.10 = 10% slowdown)
}

// Fig4 reproduces §5.1.2: a floating-point application runs on the
// back-end while it is monitored at granularity T. The schemes that
// run back-end monitoring work perturb the application at small T;
// RDMA-Sync does not perturb it at all.
func Fig4(o Options) *Fig4Data {
	gran := []int{1, 4, 16, 64, 256, 1024}
	if o.Quick {
		gran = []int{1, 16, 256}
	}
	schemes := core.FourSchemes()
	d := &Fig4Data{
		GranularityMS: gran,
		Delay:         make(map[core.Scheme][]float64),
	}
	for _, s := range schemes {
		d.Delay[s] = make([]float64, len(gran))
	}
	type point struct{ si, gi int }
	var pts []point
	for si := range schemes {
		for gi := range gran {
			pts = append(pts, point{si, gi})
		}
	}
	forEach(o, len(pts), func(i int) {
		p := pts[i]
		d.Delay[schemes[p.si]][p.gi] = fig4Point(o, schemes[p.si], gran[p.gi])
	})
	return d
}

func fig4Point(o Options, s core.Scheme, granMS int) float64 {
	eng := sim.NewEngine(o.seed() + int64(s)*10000 + int64(granMS))
	fab := simnet.NewFabric(eng, simnet.Defaults())
	front := simos.NewNode(eng, 0, simos.NodeDefaults())
	fnic := fab.Attach(front)
	backend := simos.NewNode(eng, 1, simos.NodeDefaults())
	bnic := fab.Attach(backend)

	// The probe application: one FP thread per CPU, each batch 10ms of
	// work, measuring its own wall-vs-CPU stretch.
	app := workload.StartFPApp(backend, backend.NumCPU(), 10*sim.Millisecond)

	T := sim.Time(granMS) * sim.Millisecond
	agent := core.StartAgent(backend, bnic, core.AgentConfig{Scheme: s, Interval: T})
	core.StartMonitor(front, fnic, []*core.Agent{agent}, T)

	dur := 6 * sim.Second
	if o.Quick {
		dur = 2 * sim.Second
	}
	eng.RunUntil(dur)
	_ = agent
	return app.Delays.Mean()
}

// Result renders the figure as a table (values in percent).
func (d *Fig4Data) Result() *Result {
	r := &Result{
		ID:      "fig4",
		Title:   "Normalized application delay (%) vs monitoring granularity",
		Columns: []string{"granularity(ms)"},
	}
	for _, s := range core.FourSchemes() {
		r.Columns = append(r.Columns, s.String())
	}
	for gi, g := range d.GranularityMS {
		row := []string{f1(float64(g))}
		for _, s := range core.FourSchemes() {
			row = append(row, f2(d.Delay[s][gi]*100))
		}
		r.Rows = append(r.Rows, row)
	}
	r.Notes = append(r.Notes,
		"expected shape: Socket-Async > Socket-Sync > RDMA-Async at 1-4ms; RDMA-Sync ~0 everywhere (paper Fig 4)")
	return r
}
