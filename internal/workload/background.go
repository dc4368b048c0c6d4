package workload

import (
	"fmt"

	"rdmamon/internal/metrics"
	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
)

// EchoPort is the service port of the background echo responder.
const EchoPort = "echo"

// StartEchoServers runs pool echo responder tasks on node: each
// receives a message and sends a small reply back to the requester's
// reply port. They are the "communication" half of the paper's
// background compute+communicate load (§5.1.1).
func StartEchoServers(node *simos.Node, nic *simnet.NIC, pool int) []*simos.Task {
	port := node.Port(EchoPort)
	var tasks []*simos.Task
	for i := 0; i < pool; i++ {
		t := node.Spawn(fmt.Sprintf("echo-%d", i), func(tk *simos.Task) {
			var serve func(m simos.Message)
			serve = func(m simos.Message) {
				rp, ok := m.Payload.(string)
				if !ok {
					tk.Recv(port, serve)
					return
				}
				tk.Compute(20*sim.Microsecond, func() {
					nic.Send(tk, m.From, rp, 256, "echo-reply", func() {
						tk.Recv(port, serve)
					})
				})
			}
			tk.Recv(port, serve)
		})
		tasks = append(tasks, t)
	}
	return tasks
}

// BackgroundConfig shapes the compute+communicate threads.
type BackgroundConfig struct {
	Threads   int
	Peer      int      // node to exchange messages with
	MeanBurst sim.Time // mean CPU burst per cycle (exponential-ish)
	MsgSize   int
}

// BackgroundDefaults matches the loaded-server emulation of §5.1.1.
func BackgroundDefaults() BackgroundConfig {
	return BackgroundConfig{Threads: 8, MeanBurst: 800 * sim.Microsecond, MsgSize: 1 << 10}
}

// StartBackground launches cfg.Threads compute+communicate threads on
// node: each repeatedly burns a CPU burst, then exchanges a message
// with the peer node and blocks for the reply. Blocking earns the
// thread a wakeup boost — so a probe's woken monitoring process queues
// behind ~O(threads) of them, which is the linear growth of Figure 3.
func StartBackground(node *simos.Node, nic *simnet.NIC, cfg BackgroundConfig) []*simos.Task {
	if cfg.MeanBurst <= 0 {
		cfg.MeanBurst = BackgroundDefaults().MeanBurst
	}
	if cfg.MsgSize <= 0 {
		cfg.MsgSize = 1 << 10
	}
	eng := node.Eng
	var tasks []*simos.Task
	for i := 0; i < cfg.Threads; i++ {
		replyPort := fmt.Sprintf("bg-reply-%d", i)
		rp := node.Port(replyPort)
		t := node.Spawn(fmt.Sprintf("bg-%d", i), func(tk *simos.Task) {
			var loop func()
			loop = func() {
				burst := sim.Time(eng.Rand().ExpFloat64() * float64(cfg.MeanBurst))
				if burst < 50*sim.Microsecond {
					burst = 50 * sim.Microsecond
				}
				if burst > 4*cfg.MeanBurst {
					burst = 4 * cfg.MeanBurst
				}
				tk.Compute(burst, func() {
					nic.Send(tk, cfg.Peer, EchoPort, cfg.MsgSize, replyPort, func() {
						tk.Recv(rp, func(simos.Message) { loop() })
					})
				})
			}
			loop()
		})
		tasks = append(tasks, t)
	}
	return tasks
}

// FPApp is the paper's §5.1.2 probe application: threads repeatedly
// execute a fixed batch of floating-point work and report the batch's
// wall time normalized to its CPU demand. With no interference a batch
// finishes in exactly its CPU time (delay 0); every preemption by a
// monitoring process stretches it.
type FPApp struct {
	// Delays holds (wall-cpu)/cpu per batch, across all threads.
	Delays metrics.Sample
}

// StartFPApp runs threads batch-loop tasks on node.
func StartFPApp(node *simos.Node, threads int, batch sim.Time) *FPApp {
	app := &FPApp{}
	eng := node.Eng
	for i := 0; i < threads; i++ {
		node.Spawn(fmt.Sprintf("fpapp-%d", i), func(tk *simos.Task) {
			var loop func()
			loop = func() {
				start := eng.Now()
				tk.Compute(batch, func() {
					wall := eng.Now() - start
					app.Delays.Add(float64(wall-batch) / float64(batch))
					loop()
				})
			}
			loop()
		})
	}
	return app
}
