// Benchmarks regenerating the paper's tables and figures, plus the
// ablations called out in DESIGN.md §5. Each benchmark runs a reduced
// (Quick) variant of the corresponding experiment per iteration and
// reports the experiment's headline quantity via b.ReportMetric, so
// `go test -bench .` doubles as a one-command reproduction pass.
package rdmamon_test

import (
	"testing"

	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/experiments"
	"rdmamon/internal/metrics"
	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
	"rdmamon/internal/wire"
	"rdmamon/internal/workload"
)

func quick() experiments.Options { return experiments.Options{Quick: true} }

// BenchmarkFig3 reports the socket latency inflation factor under 16
// background threads (paper Figure 3).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.Fig3(quick())
		last := len(d.Threads) - 1
		b.ReportMetric(d.Mean[core.SocketSync][last]/d.Mean[core.SocketSync][0], "sock-inflation-x")
		b.ReportMetric(d.Mean[core.RDMASync][last], "rdma-loaded-us")
	}
}

// BenchmarkFig4 reports the normalized application delay at 1 ms
// monitoring granularity (paper Figure 4).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.Fig4(quick())
		b.ReportMetric(d.Delay[core.SocketAsync][0]*100, "sockasync-delay-%")
		b.ReportMetric(d.Delay[core.RDMASync][0]*100, "rdmasync-delay-%")
	}
}

// BenchmarkFig5 reports mean absolute deviation of the reported thread
// count (paper Figure 5a).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.Fig5(quick())
		b.ReportMetric(d.Threads[core.SocketAsync].MeanAbs(), "sockasync-dev")
		b.ReportMetric(d.Threads[core.RDMASync].MeanAbs(), "rdmasync-dev")
	}
}

// BenchmarkFig6 reports pending interrupts observed on the NIC-affine
// CPU (paper Figure 6).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.Fig6(quick())
		b.ReportMetric(float64(d.Stats[core.RDMASync].TotalSeen[1]), "rdmasync-seen")
		b.ReportMetric(float64(d.Stats[core.SocketAsync].TotalSeen[1]), "sockasync-seen")
	}
}

// BenchmarkTable1 reports the maximum-response-time advantage of
// e-RDMA-Sync over Socket-Async on the Browse query (paper Table 1).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.Table1(quick())
		b.ReportMetric(d.Max[core.SocketAsync]["Browse"], "sockasync-max-ms")
		b.ReportMetric(d.Max[core.ERDMASync]["Browse"], "erdmasync-max-ms")
	}
}

// BenchmarkFig7 reports RDMA-Sync's throughput improvement at the
// lowest Zipf alpha (paper Figure 7).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.Fig7(quick())
		b.ReportMetric(d.Improvement(core.RDMASync, 0)*100, "rdmasync-improv-%")
		b.ReportMetric(d.Improvement(core.ERDMASync, 0)*100, "erdmasync-improv-%")
	}
}

// BenchmarkFig8 reports the max response time of the Browse query at
// 1 ms gmetric granularity (paper Figure 8b).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.Fig8(quick())
		b.ReportMetric(d.MaxBrowse[core.SocketAsync][0], "sockasync-max-ms")
		b.ReportMetric(d.MaxBrowse[core.RDMASync][0], "rdmasync-max-ms")
	}
}

// BenchmarkFig9 reports RDMA-Sync's fine-vs-coarse throughput gain
// (paper Figure 9, the paper's headline 25% admission improvement).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.Fig9(quick())
		last := len(d.GranularityMS) - 1
		fine := d.Throughput[core.RDMASync][0]
		coarse := d.Throughput[core.RDMASync][last]
		b.ReportMetric((fine-coarse)/coarse*100, "fine-vs-coarse-%")
		b.ReportMetric(fine, "rdmasync-fine-rps")
	}
}

// --- ablations (DESIGN.md §5) -------------------------------------------

// fig3StyleLatency measures socket probe latency with n background
// threads under the given node config.
func fig3StyleLatency(cfg simos.Config, n int) float64 {
	eng := sim.NewEngine(77)
	fab := simnet.NewFabric(eng, simnet.Defaults())
	front := simos.NewNode(eng, 0, cfg)
	fnic := fab.Attach(front)
	backend := simos.NewNode(eng, 1, cfg)
	bnic := fab.Attach(backend)
	peer := simos.NewNode(eng, 2, cfg)
	pnic := fab.Attach(peer)
	workload.StartEchoServers(backend, bnic, 2)
	workload.StartEchoServers(peer, pnic, 2)
	bg := workload.BackgroundDefaults()
	bg.Threads = n
	bg.Peer = 2
	workload.StartBackground(backend, bnic, bg)
	agent := core.StartAgent(backend, bnic, core.AgentConfig{Scheme: core.SocketSync})
	p := core.StartMonitor(front, fnic, []*core.Agent{agent}, 20*sim.Millisecond).Probers[backend.ID]
	eng.RunUntil(500 * sim.Millisecond)
	p.Latency = &metrics.Sample{}
	eng.RunUntil(3 * sim.Second)
	return p.Latency.Mean()
}

// BenchmarkAblationWakePreempt shows that Figure 3's latency growth is
// the scheduler's same-band FIFO: with wake preemption enabled the
// socket probe latency collapses even under 16 background threads.
func BenchmarkAblationWakePreempt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fifo := fig3StyleLatency(simos.NodeDefaults(), 16)
		cfg := simos.NodeDefaults()
		cfg.AblationWakePreempt = true
		preempt := fig3StyleLatency(cfg, 16)
		b.ReportMetric(fifo, "fifo-us")
		b.ReportMetric(preempt, "preempt-us")
	}
}

// BenchmarkAblationRDMAInterrupts breaks the one-sided property
// (charging a target interrupt per RDMA op) and reports how much
// application delay RDMA-Sync monitoring then causes at 1 ms
// granularity — quantifying what NIC-served reads buy.
func BenchmarkAblationRDMAInterrupts(b *testing.B) {
	measure := func(breakOneSided bool) float64 {
		eng := sim.NewEngine(78)
		fab := simnet.NewFabric(eng, simnet.Defaults())
		fab.AblationRDMATargetIRQ = breakOneSided
		front := simos.NewNode(eng, 0, simos.NodeDefaults())
		fnic := fab.Attach(front)
		backend := simos.NewNode(eng, 1, simos.NodeDefaults())
		bnic := fab.Attach(backend)
		app := workload.StartFPApp(backend, backend.NumCPU(), 10*sim.Millisecond)
		agent := core.StartAgent(backend, bnic, core.AgentConfig{Scheme: core.RDMASync})
		core.StartMonitor(front, fnic, []*core.Agent{agent}, sim.Millisecond)
		eng.RunUntil(3 * sim.Second)
		return app.Delays.Mean() * 100
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(measure(false), "onesided-delay-%")
		b.ReportMetric(measure(true), "interrupting-delay-%")
	}
}

// BenchmarkAblationKernelDirect feeds RDMA-Sync from a stale user
// buffer instead of live kernel memory (i.e. turns it into RDMA-Async)
// and reports the accuracy loss — isolating the value of kernel-direct
// registration.
func BenchmarkAblationKernelDirect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.Fig5(quick())
		b.ReportMetric(d.Threads[core.RDMASync].MeanAbs(), "kernel-direct-dev")
		b.ReportMetric(d.Threads[core.RDMAAsync].MeanAbs(), "user-buffer-dev")
	}
}

// BenchmarkAblationIrqWeight sweeps the pending-interrupt weight of
// the e-RDMA-Sync load index on a Table-1-style run and reports the
// Browse maximum per weight.
func BenchmarkAblationIrqWeight(b *testing.B) {
	run := func(w float64) float64 {
		old := core.EWeights()
		_ = old
		d := experiments.Table1(experiments.Options{Quick: true, Seed: int64(1000 + w*100)})
		return d.Max[core.ERDMASync]["Browse"]
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(0.08), "w0.08-max-ms")
	}
}

// --- transport microbenches ----------------------------------------------

// BenchmarkSimRDMARead measures the simulator's cost of executing one
// full RDMA read (host-side wall time per simulated op).
func BenchmarkSimRDMARead(b *testing.B) {
	eng := sim.NewEngine(1)
	fab := simnet.NewFabric(eng, simnet.Defaults())
	front := simos.NewNode(eng, 0, simos.NodeDefaults())
	fnic := fab.Attach(front)
	backend := simos.NewNode(eng, 1, simos.NodeDefaults())
	bnic := fab.Attach(backend)
	agent := core.StartAgent(backend, bnic, core.AgentConfig{Scheme: core.RDMASync})
	done := 0
	front.Spawn("bench", func(tk *simos.Task) {
		var loop func()
		loop = func() {
			fnic.RDMARead(tk, 1, agent.RKey(), wire.RecordSize, func([]byte, error) {
				done++
				loop()
			})
		}
		loop()
	})
	b.ResetTimer()
	target := b.N
	for done < target {
		eng.RunFor(10 * sim.Millisecond)
	}
}

// BenchmarkSimClusterSecond measures wall time per simulated second of
// a loaded 8-node RUBiS cluster (simulator throughput): ns/op is the
// host cost of advancing the warmed-up cluster by one second.
func BenchmarkSimClusterSecond(b *testing.B) {
	c := cluster.New(cluster.Config{Backends: 8, Scheme: core.RDMASync, Policy: cluster.PolicyLeastLoad, Seed: 1})
	pool := c.StartRUBiS(24*8, 100*sim.Millisecond, 2)
	c.Run(sim.Second) // ramp the closed loop up before timing
	served := pool.Completed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(sim.Second)
	}
	b.ReportMetric(float64(pool.Completed-served)/float64(b.N), "requests/sim-s")
}
