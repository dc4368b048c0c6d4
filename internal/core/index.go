package core

import "rdmamon/internal/wire"

// Weights configures the WebSphere-style weighted load index (§5.2.1):
// each component is normalised to [0,1] and combined linearly; the
// dispatcher sends a request to the back-end with the smallest index.
type Weights struct {
	CPU  float64 // mean CPU utilisation
	Run  float64 // run-queue length
	Mem  float64 // memory pressure
	Conn float64 // open connections
	IRQ  float64 // pending interrupts (only e-RDMA-Sync sets this)

	// Normalisation knobs: the raw value at which a component
	// saturates to 1.0.
	RunSat  float64 // runnable tasks per CPU
	ConnSat float64 // open connections
	IRQSat  float64 // pending interrupts
}

// DefaultWeights mirrors the IBM WebSphere mix the paper cites: CPU
// and connection load dominate, run-queue length refines, memory is a
// guard.
func DefaultWeights() Weights {
	return Weights{
		CPU: 0.35, Run: 0.2, Mem: 0.05, Conn: 0.4,
		RunSat: 8, ConnSat: 24, IRQSat: 8,
	}
}

// EWeights extends DefaultWeights with the pending-interrupt component
// used by e-RDMA-Sync: a node busy absorbing network interrupts is
// about to get slower than its CPU counters admit.
func EWeights() Weights {
	w := DefaultWeights()
	w.IRQ = 0.08
	return w
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Index computes the weighted load index of a record. Larger means
// more loaded. The result is not bounded by 1.0 when weights sum above
// one; only ordering matters to the dispatcher. Outside tests its only
// caller is bench/layers.go; everything else scores through IndexOf.
func (w Weights) Index(r wire.LoadRecord) float64 { return w.IndexOf(&r) }

// IndexOf is Index on a record that stays where it is: the form every
// per-decision caller scores through, so a 120-byte record is not copied
// into the call.
func (w *Weights) IndexOf(r *wire.LoadRecord) float64 {
	cpus := float64(r.NumCPU)
	if cpus == 0 {
		cpus = 1
	}
	cpu := float64(r.UtilMean()) / 1000
	run := 0.0
	if w.RunSat > 0 {
		run = clamp01(float64(r.NrRunning) / cpus / w.RunSat)
	}
	mem := clamp01(r.MemFraction())
	conn := 0.0
	if w.ConnSat > 0 {
		conn = clamp01(float64(r.Conns) / w.ConnSat)
	}
	irq := 0.0
	if w.IRQSat > 0 {
		irq = clamp01(float64(r.PendingIRQTotal()) / w.IRQSat)
	}
	return w.CPU*cpu + w.Run*run + w.Mem*mem + w.Conn*conn + w.IRQ*irq
}

// WeightsFor returns the index weights a scheme's dispatcher uses: all
// schemes use the standard mix except e-RDMA-Sync, which adds the
// interrupt component (it is the only scheme whose interrupt data is
// trustworthy, §5.1.4).
func WeightsFor(s Scheme) Weights {
	if s == ERDMASync {
		return EWeights()
	}
	return DefaultWeights()
}
