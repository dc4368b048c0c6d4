// Quickstart: build a tiny simulated cluster, install each monitoring
// scheme on a loaded back-end and probe it from the front-end, printing
// what each scheme reports and what it costs.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"rdmamon/internal/core"
	"rdmamon/internal/metrics"
	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
	"rdmamon/internal/workload"
)

func main() {
	fmt.Println("rdmamon quickstart: probing a loaded back-end with each scheme")
	fmt.Println()
	fmt.Printf("%-13s %10s %10s %8s %8s %8s\n",
		"scheme", "probes", "mean(us)", "p99(us)", "run", "util%")
	for _, scheme := range core.Schemes() {
		eng := sim.NewEngine(1)
		fab := simnet.NewFabric(eng, simnet.Defaults())

		front := simos.NewNode(eng, 0, simos.NodeDefaults())
		fnic := fab.Attach(front)
		backend := simos.NewNode(eng, 1, simos.NodeDefaults())
		bnic := fab.Attach(backend)
		peer := simos.NewNode(eng, 2, simos.NodeDefaults())
		pnic := fab.Attach(peer)

		// Load the back-end with compute+communicate threads.
		workload.StartEchoServers(peer, pnic, 2)
		bg := workload.BackgroundDefaults()
		bg.Threads = 6
		bg.Peer = 2
		workload.StartBackground(backend, bnic, bg)

		// Back-end agent + front-end prober at T=50ms.
		agent := core.StartAgent(backend, bnic, core.AgentConfig{Scheme: scheme})
		prober := core.StartMonitor(front, fnic, []*core.Agent{agent}, core.DefaultInterval).Probers[backend.ID]
		prober.Latency = &metrics.Sample{}

		eng.RunUntil(3 * sim.Second)

		rec, _, ok := prober.Latest()
		if !ok {
			fmt.Printf("%-13s no record!\n", scheme)
			continue
		}
		fmt.Printf("%-13s %10d %10.1f %8.1f %8d %7d%%\n",
			scheme, prober.Latency.Count(),
			prober.Latency.Mean(), prober.Latency.Percentile(99),
			rec.NrRunning, rec.UtilMean()/10)
	}
	fmt.Println()
	fmt.Println("Note how the socket schemes' probe latency inflates under load")
	fmt.Println("while the RDMA schemes stay flat — the paper's core observation.")
}
