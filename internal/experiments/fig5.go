package experiments

import (
	"rdmamon/internal/core"
	"rdmamon/internal/httpsim"
	"rdmamon/internal/metrics"
	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
	"rdmamon/internal/wire"
)

func init() {
	register("fig5a", "accuracy of reported thread count under load (§5.1.3)",
		func(o Options) *Result { return Fig5(o).ResultThreads() })
	register("fig5b", "accuracy of reported CPU load under load (§5.1.3)",
		func(o Options) *Result { return Fig5(o).ResultCPU() })
}

// Fig5Data holds the Figure 5 deviations: |reported - actual| for the
// runnable-thread count (5a) and the CPU utilisation (5b), per scheme.
type Fig5Data struct {
	Threads map[core.Scheme]*metrics.Deviation
	CPU     map[core.Scheme]*metrics.Deviation // percent points
}

// Fig5 reproduces §5.1.3: each scheme monitors a back-end whose load
// ramps up; reported values are compared against a kernel-module truth
// sampled at the instant each report arrives.
func Fig5(o Options) *Fig5Data {
	schemes := core.FourSchemes()
	d := &Fig5Data{
		Threads: make(map[core.Scheme]*metrics.Deviation),
		CPU:     make(map[core.Scheme]*metrics.Deviation),
	}
	for _, s := range schemes {
		d.Threads[s] = &metrics.Deviation{}
		d.CPU[s] = &metrics.Deviation{}
	}
	forEach(o, len(schemes), func(i int) {
		fig5Point(o, schemes[i], d.Threads[schemes[i]], d.CPU[schemes[i]])
	})
	return d
}

func fig5Point(o Options, s core.Scheme, devT, devC *metrics.Deviation) {
	eng := sim.NewEngine(o.seed() + int64(s))
	fab := simnet.NewFabric(eng, simnet.Defaults())
	front := simos.NewNode(eng, 0, simos.NodeDefaults())
	fnic := fab.Attach(front)
	backend := simos.NewNode(eng, 1, simos.NodeDefaults())
	bnic := fab.Attach(backend)

	dur := 10 * sim.Second
	if o.Quick {
		dur = 3 * sim.Second
	}

	// Ramping client load, as in the paper ("we fired client requests
	// to be processed at the back-end server"): requests arrive over
	// the network in growing bursts, wake worker processes (which then
	// compete with the monitoring process for CPU) and move both
	// nr_running and utilisation around.
	httpsim.StartServer(backend, bnic, httpsim.ServerConfig{Workers: 12})
	fab.RegisterExternal(-1, func(simos.Message) {})
	var reqID uint64
	eng.NewTicker(25*sim.Millisecond, func() {
		frac := float64(eng.Now()) / float64(dur)
		maxBatch := 1 + int(frac*10)
		n := eng.Rand().Intn(maxBatch + 1)
		for j := 0; j < n; j++ {
			reqID++
			req := httpsim.Request{
				ID:     reqID,
				Class:  "load",
				CPU:    sim.Time(eng.Rand().Intn(12)+3) * sim.Millisecond,
				Size:   300,
				Resp:   2 << 10,
				Client: -1,
			}
			fab.Inject(-1, 1, httpsim.ServerPort, req.Size, req)
		}
	})

	agent := core.StartAgent(backend, bnic, core.AgentConfig{Scheme: s})
	p := core.StartMonitor(front, fnic, []*core.Agent{agent}, core.DefaultInterval).Probers[backend.ID]
	p.OnRecord = func(rec wire.LoadRecord, at sim.Time) {
		truth := backend.K.Snapshot()
		devT.Observe(float64(rec.NrRunning), float64(truth.NrRunning))
		devC.Observe(float64(rec.UtilMean())/10, float64(truth.UtilMean())/10) // percent
	}
	eng.RunUntil(dur)
}

// ResultThreads renders Figure 5a.
func (d *Fig5Data) ResultThreads() *Result {
	r := &Result{
		ID:      "fig5a",
		Title:   "Deviation of reported runnable-thread count (|reported-actual|)",
		Columns: []string{"scheme", "mean", "p95", "max", "samples"},
	}
	for _, s := range core.FourSchemes() {
		dev := d.Threads[s]
		r.Rows = append(r.Rows, []string{
			s.String(), f2(dev.MeanAbs()), f2(dev.P95Abs()), f2(dev.MaxAbs()),
			f1(float64(dev.Count())),
		})
	}
	r.Notes = append(r.Notes,
		"expected shape: RDMA-Sync ~0 deviation; async schemes deviate; sockets worst under load (paper Fig 5a)")
	return r
}

// ResultCPU renders Figure 5b (deviations in CPU-percent points).
func (d *Fig5Data) ResultCPU() *Result {
	r := &Result{
		ID:      "fig5b",
		Title:   "Deviation of reported CPU load (percent points)",
		Columns: []string{"scheme", "mean", "p95", "max", "samples"},
	}
	for _, s := range core.FourSchemes() {
		dev := d.CPU[s]
		r.Rows = append(r.Rows, []string{
			s.String(), f2(dev.MeanAbs()), f2(dev.P95Abs()), f2(dev.MaxAbs()),
			f1(float64(dev.Count())),
		})
	}
	r.Notes = append(r.Notes,
		"expected shape: RDMA-Sync near zero; CPU load fluctuates faster than thread count, so async deviations are larger (paper Fig 5b)")
	return r
}
