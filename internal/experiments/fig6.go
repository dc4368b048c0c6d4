package experiments

import (
	"fmt"

	"rdmamon/internal/core"
	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
	"rdmamon/internal/wire"
)

func init() {
	register("fig6", "pending interrupts reported per CPU (§5.1.4)",
		func(o Options) *Result { return Fig6(o).Result() })
}

// Fig6Stats summarizes what one scheme reported about irq_stat.
type Fig6Stats struct {
	Samples    int
	NonZero    [2]int     // samples with pending>0, per CPU
	TotalSeen  [2]int     // sum of reported pending counts, per CPU
	MaxPending [2]int     // largest pending count reported, per CPU
	MeanSeen   [2]float64 // mean reported pending, per CPU
}

// Fig6Data holds Figure 6a-6d: what each scheme observed of the
// back-end's pending interrupts under network-heavy load.
type Fig6Data struct {
	Stats map[core.Scheme]*Fig6Stats
}

// Fig6 reproduces §5.1.4: a back-end absorbs bursty network traffic
// (interrupt storms on its NIC-affine CPU); each scheme reports the
// irq_stat pending counts it can see. The user-space schemes only run
// after interrupts are serviced, so they under-report; RDMA-Sync DMAs
// the live structure at arbitrary instants and sees the storms —
// especially on the second CPU, where the NIC's line is routed.
func Fig6(o Options) *Fig6Data {
	schemes := core.FourSchemes()
	d := &Fig6Data{Stats: make(map[core.Scheme]*Fig6Stats)}
	for _, s := range schemes {
		d.Stats[s] = &Fig6Stats{}
	}
	forEach(len(schemes), func(i int) {
		fig6Point(o, schemes[i], d.Stats[schemes[i]])
	})
	return d
}

func fig6Point(o Options, s core.Scheme, st *Fig6Stats) {
	eng := sim.NewEngine(o.seed() + 60 + int64(s))
	fab := simnet.NewFabric(eng, simnet.Defaults())
	front := simos.NewNode(eng, 0, simos.NodeDefaults())
	fnic := fab.Attach(front)
	backend := simos.NewNode(eng, 1, simos.NodeDefaults())
	bnic := fab.Attach(backend)

	// Drain task: consumes the blasted messages so the port doesn't
	// grow without bound (a UDP sink).
	sink := backend.Port("sink")
	backend.Spawn("sink", func(tk *simos.Task) {
		var loop func(simos.Message)
		loop = func(simos.Message) {
			tk.Compute(5*sim.Microsecond, func() { tk.Recv(sink, loop) })
		}
		tk.Recv(sink, loop)
	})
	// Bursty blasters on three peer nodes: their bursts overlap at the
	// back-end NIC, so packets arrive faster than the softirq drain
	// rate and storms of pending interrupts form on CPU1.
	for b := 2; b <= 4; b++ {
		blaster := simos.NewNode(eng, b, simos.NodeDefaults())
		blnic := fab.Attach(blaster)
		blaster.Spawn("blast", func(tk *simos.Task) {
			var loop func()
			loop = func() {
				burst := 15 + eng.Rand().Intn(40)
				var sendN func(k int)
				sendN = func(k int) {
					if k == 0 {
						tk.Sleep(sim.Time(500+eng.Rand().Intn(3000))*sim.Microsecond, loop)
						return
					}
					blnic.Send(tk, 1, "sink", 1<<10, nil, func() { sendN(k - 1) })
				}
				sendN(burst)
			}
			loop()
		})
	}

	agent := core.StartAgent(backend, bnic, core.AgentConfig{Scheme: s})
	p := core.StartMonitor(front, fnic, []*core.Agent{agent}, 10*sim.Millisecond).Probers[backend.ID]
	p.OnRecord = func(rec wire.LoadRecord, at sim.Time) {
		st.Samples++
		for c := 0; c < 2; c++ {
			pend := int(rec.IrqPendingHard[c]) + int(rec.IrqPendingSoft[c])
			if pend > 0 {
				st.NonZero[c]++
			}
			st.TotalSeen[c] += pend
			if pend > st.MaxPending[c] {
				st.MaxPending[c] = pend
			}
		}
	}
	dur := 10 * sim.Second
	if o.Quick {
		dur = 3 * sim.Second
	}
	eng.RunUntil(dur)
	for c := 0; c < 2; c++ {
		if st.Samples > 0 {
			st.MeanSeen[c] = float64(st.TotalSeen[c]) / float64(st.Samples)
		}
	}
}

// Result renders Figure 6 as a table (one row per scheme).
func (d *Fig6Data) Result() *Result {
	r := &Result{
		ID:    "fig6",
		Title: "Pending interrupts observed (network storm on back-end)",
		Columns: []string{"scheme", "samples",
			"cpu0:seen", "cpu0:mean", "cpu1:seen", "cpu1:mean", "cpu1:max", "cpu1:hit%"},
	}
	for _, s := range core.FourSchemes() {
		st := d.Stats[s]
		hit := 0.0
		if st.Samples > 0 {
			hit = float64(st.NonZero[1]) / float64(st.Samples) * 100
		}
		r.Rows = append(r.Rows, []string{
			s.String(), fmt.Sprint(st.Samples),
			fmt.Sprint(st.TotalSeen[0]), f2(st.MeanSeen[0]),
			fmt.Sprint(st.TotalSeen[1]), f2(st.MeanSeen[1]),
			fmt.Sprint(st.MaxPending[1]), f1(hit),
		})
	}
	r.Notes = append(r.Notes,
		"expected shape: RDMA-Sync reports more and more-frequent pending interrupts than the user-space schemes, concentrated on CPU1 (paper Fig 6a-d)")
	return r
}
