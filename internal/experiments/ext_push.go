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
	register("push", "extension: hardware-multicast push vs pull schemes (paper §6 discussion)",
		func(o Options) *Result { return Push(o).Result() })
}

// PushRow summarizes one monitoring approach at fine granularity.
type PushRow struct {
	Name      string
	MeanAgeMS float64 // record age at the front-end when sampled
	AppDelay  float64 // normalized perturbation of the back-end app
	RecordsPS float64 // records landing at the front-end per second
}

// PushData compares the paper's §6 multicast-push alternative against
// the pull schemes at T = 4ms. Push scales to many front-ends in one
// send, but it keeps a monitoring process on the back-end — so it
// inherits the perturbation and scheduling delays of the two-sided
// schemes, which is exactly why the paper stays with one-sided pulls.
type PushData struct {
	Rows []PushRow
}

// Push runs each approach against a back-end executing a fixed
// floating-point workload.
func Push(o Options) *PushData {
	const T = 4 * sim.Millisecond
	approaches := []string{"Multicast-Push", "Socket-Sync", "RDMA-Async", "RDMA-Sync"}
	d := &PushData{Rows: make([]PushRow, len(approaches))}
	forEach(len(approaches), func(i int) {
		d.Rows[i] = pushPoint(o, approaches[i], T)
	})
	return d
}

func pushPoint(o Options, name string, T sim.Time) PushRow {
	eng := sim.NewEngine(o.seed() + 400)
	fab := simnet.NewFabric(eng, simnet.Defaults())
	front := simos.NewNode(eng, 0, simos.NodeDefaults())
	fnic := fab.Attach(front)
	backend := simos.NewNode(eng, 1, simos.NodeDefaults())
	bnic := fab.Attach(backend)

	app := workload.StartFPApp(backend, backend.NumCPU(), 10*sim.Millisecond)

	var age metrics.Sample
	var records uint64
	dur := 10 * sim.Second
	if o.Quick {
		dur = 3 * sim.Second
	}

	if name == "Multicast-Push" {
		mon := core.StartPushMonitor(fab, front, core.PushGroup)
		core.StartPushAgent(backend, bnic, core.PushGroup, T)
		// Sample the cached record's age the way a dispatcher would:
		// at arbitrary instants.
		eng.NewTicker(5*sim.Millisecond, func() {
			if _, at, ok := mon.Latest(1); ok {
				age.Add(float64(eng.Now()-at) / float64(sim.Millisecond))
				records, _ = mon.Stats()
			}
		})
		eng.RunUntil(dur)
	} else {
		s, err := core.ParseScheme(name)
		if err != nil {
			panic(err)
		}
		agent := core.StartAgent(backend, bnic, core.AgentConfig{Scheme: s, Interval: T})
		p := core.StartMonitor(front, fnic, []*core.Agent{agent}, T).Probers[backend.ID]
		p.Latency = &metrics.Sample{}
		eng.NewTicker(5*sim.Millisecond, func() {
			if _, at, ok := p.Latest(); ok {
				age.Add(float64(eng.Now()-at) / float64(sim.Millisecond))
				records = uint64(p.Latency.Count())
			}
		})
		eng.RunUntil(dur)
	}
	return PushRow{
		Name:      name,
		MeanAgeMS: age.Mean(),
		AppDelay:  app.Delays.Mean(),
		RecordsPS: float64(records) / dur.Seconds(),
	}
}

// Result renders the comparison.
func (d *PushData) Result() *Result {
	r := &Result{
		ID:      "push",
		Title:   "Multicast push vs pull at T=4ms: freshness, cost, rate",
		Columns: []string{"approach", "mean age(ms)", "app delay(%)", "records/s"},
	}
	for _, row := range d.Rows {
		r.Rows = append(r.Rows, []string{
			row.Name, f2(row.MeanAgeMS), f2(row.AppDelay * 100), f1(row.RecordsPS),
		})
	}
	r.Notes = append(r.Notes,
		"extension (paper §6): push scales to many front-ends but keeps a back-end process; RDMA-Sync is both fresh and free")
	return r
}
