package simos

import "rdmamon/internal/sim"

// KernelStats is the node's kernel bookkeeping: the data structures a
// /proc read formats for user space and — crucially for the paper —
// the data structures an RDMA-Sync probe reads directly out of pinned
// kernel memory at DMA time.
type KernelStats struct {
	node *Node

	CtxSwitches uint64
	CumIRQHard  [MaxCPU]uint64
	CumIRQSoft  [MaxCPU]uint64

	NetRxBytes uint64
	NetTxBytes uint64
	NetRxPkts  uint64
	NetTxPkts  uint64

	conns     int
	connFn    func() int
	memUsedKB uint64

	utilHist [MaxCPU][]utilSample
}

type utilSample struct {
	t    sim.Time
	busy sim.Time
}

func newKernelStats(n *Node) *KernelStats {
	return &KernelStats{node: n, memUsedKB: n.Cfg.MemBaseKB}
}

// sampleUtil records each CPU's cumulative busy time; called from the
// timer tick. Samples older than the utilisation window are pruned by
// compacting the history in place, so a steady tick reuses one array.
func (k *KernelStats) sampleUtil() {
	now := k.node.Eng.Now()
	keepAfter := now - k.node.Cfg.UtilWindow - 2*k.node.Cfg.Tick
	for i, c := range k.node.cpus {
		h := append(k.utilHist[i], utilSample{t: now, busy: c.cumBusy()})
		drop := 0
		for drop < len(h)-1 && h[drop+1].t <= keepAfter {
			drop++
		}
		k.utilHist[i] = h[:copy(h, h[drop:])]
	}
}

// UtilPerMille returns CPU cpuID's utilisation over the configured
// window, in parts per thousand (0..1000).
func (k *KernelStats) UtilPerMille(cpuID int) int {
	if cpuID < 0 || cpuID >= len(k.node.cpus) {
		return 0
	}
	c := k.node.cpus[cpuID]
	now := k.node.Eng.Now()
	busyNow := c.cumBusy()
	h := k.utilHist[cpuID]
	var base utilSample
	if len(h) == 0 {
		base = utilSample{t: 0, busy: 0}
	} else {
		base = h[0]
		target := now - k.node.Cfg.UtilWindow
		for _, s := range h {
			if s.t <= target {
				base = s
			} else {
				break
			}
		}
	}
	span := now - base.t
	if span <= 0 {
		return 0
	}
	u := int64(busyNow-base.busy) * 1000 / int64(span)
	if u < 0 {
		u = 0
	}
	if u > 1000 {
		u = 1000
	}
	return int(u)
}

// AddConns adjusts the open-connection count (maintained by the server
// application model).
func (k *KernelStats) AddConns(d int) {
	k.conns += d
	if k.conns < 0 {
		k.conns = 0
	}
}

// SetConnFn installs a live connection-count source (e.g. a server's
// queue depth plus in-service requests); its value is added to the
// AddConns counter in snapshots.
func (k *KernelStats) SetConnFn(fn func() int) { k.connFn = fn }

// Conns returns the current open-connection count.
func (k *KernelStats) Conns() int {
	c := k.conns
	if k.connFn != nil {
		c += k.connFn()
	}
	return c
}

// AddMemKB adjusts the resident memory estimate.
func (k *KernelStats) AddMemKB(d int64) {
	v := int64(k.memUsedKB) + d
	if v < 0 {
		v = 0
	}
	if v > int64(k.node.Cfg.MemTotalKB) {
		v = int64(k.node.Cfg.MemTotalKB)
	}
	k.memUsedKB = uint64(v)
}

// MemUsedKB returns the resident memory estimate.
func (k *KernelStats) MemUsedKB() uint64 { return k.memUsedKB }

// AddNetRx / AddNetTx account network traffic (called by simnet).
func (k *KernelStats) AddNetRx(bytes int) {
	k.NetRxBytes += uint64(bytes)
	k.NetRxPkts++
}

// AddNetTx accounts one transmitted packet of the given size.
func (k *KernelStats) AddNetTx(bytes int) {
	k.NetTxBytes += uint64(bytes)
	k.NetTxPkts++
}

// Snapshot is an instantaneous copy of the kernel's load-relevant
// statistics. Both the /proc syscall and the RDMA-Sync DMA path
// produce exactly this structure; the difference between the schemes
// is *when* it is taken and *what it costs*, never its contents.
type Snapshot struct {
	Time      sim.Time // kernel timestamp at capture
	NodeID    int
	NrRunning int // runnable tasks (kernel nr_running)
	NrTasks   int

	UtilPerMille   [MaxCPU]int // per-CPU utilisation over the window
	IrqPendingHard [MaxCPU]int
	IrqPendingSoft [MaxCPU]int
	CumIRQ         [MaxCPU]uint64
	NumCPU         int

	MemUsedKB  uint64
	MemTotalKB uint64
	NetRxBytes uint64
	NetTxBytes uint64
	Conns      int
	CtxSwitch  uint64
}

// UtilMean returns the mean utilisation across CPUs in parts per
// thousand.
func (s Snapshot) UtilMean() int {
	if s.NumCPU == 0 {
		return 0
	}
	sum := 0
	for i := 0; i < s.NumCPU; i++ {
		sum += s.UtilPerMille[i]
	}
	return sum / s.NumCPU
}

// PendingIRQTotal returns the summed hard+soft pending interrupts.
func (s Snapshot) PendingIRQTotal() int {
	n := 0
	for i := 0; i < s.NumCPU; i++ {
		n += s.IrqPendingHard[i] + s.IrqPendingSoft[i]
	}
	return n
}

// Snapshot captures the current kernel statistics. It has no simulated
// cost: cost is charged by the access path (ReadProc syscall, or none
// at all for a DMA read).
func (k *KernelStats) Snapshot() Snapshot {
	n := k.node
	s := Snapshot{
		Time:       n.Eng.Now(),
		NodeID:     n.ID,
		NrRunning:  n.NrRunnable(),
		NrTasks:    n.NrTasks(),
		NumCPU:     len(n.cpus),
		MemUsedKB:  k.memUsedKB,
		MemTotalKB: n.Cfg.MemTotalKB,
		NetRxBytes: k.NetRxBytes,
		NetTxBytes: k.NetTxBytes,
		Conns:      k.Conns(),
		CtxSwitch:  k.CtxSwitches,
	}
	for i := range n.cpus {
		s.UtilPerMille[i] = k.UtilPerMille(i)
		s.IrqPendingHard[i], s.IrqPendingSoft[i] = n.PendingIRQ(i)
		s.CumIRQ[i] = k.CumIRQHard[i] + k.CumIRQSoft[i]
	}
	return s
}
