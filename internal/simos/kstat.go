package simos

import "rdmamon/internal/sim"

// KernelStats is the node's kernel bookkeeping: the data structures a
// /proc read formats for user space and — crucially for the paper —
// the data structures an RDMA-Sync probe reads directly out of pinned
// kernel memory at DMA time.
type KernelStats struct {
	node *Node

	CtxSwitches uint64

	NetRxBytes uint64
	NetTxBytes uint64

	connFn    func() int
	memUsedKB uint64

	// util is the utilisation history, one row per tick: the tick's
	// instant, then each CPU's cumulative busy time. It grows by append,
	// oldest row first, up to utilLen rows — a node that parks at its
	// first tick keeps one — and is a ring from then on: the next row
	// overwrites the oldest, row utilHead.
	util     []sim.Time
	utilLen  int
	utilHead int
}

func newKernelStats(n *Node) *KernelStats {
	// A reading's base is the newest row at least a window old. Ticks
	// are at least a Tick apart, so at most UtilWindow/Tick + 1 rows are
	// newer than it: a ring of UtilWindow/Tick + 3 holds the base (or,
	// early on, every row there has been) with one to spare — the
	// length the compacted history it replaces settled at.
	return &KernelStats{node: n, memUsedKB: n.Cfg.MemBaseKB, utilLen: int(n.Cfg.UtilWindow/n.Cfg.Tick) + 3}
}

// rowLen is the length of a utilisation row.
func (k *KernelStats) rowLen() int { return len(k.node.cpus) + 1 }

// utilHist returns the rows oldest first, as the two runs of the ring.
func (k *KernelStats) utilHist() (older, newer []sim.Time) {
	at := k.utilHead * k.rowLen()
	return k.util[at:], k.util[:at]
}

// newestRow returns the newest row; the history is not empty.
func (k *KernelStats) newestRow() []sim.Time {
	w := k.rowLen()
	end := k.utilHead * w
	if end == 0 {
		end = len(k.util)
	}
	return k.util[end-w : end]
}

// putUtil takes one row, busy[i] for CPU i: appended while the history
// is short, over the oldest row once it is full.
func (k *KernelStats) putUtil(t sim.Time, busy *[MaxCPU]sim.Time) {
	w := k.rowLen()
	if rows := len(k.util) / w; rows < k.utilLen {
		switch rows {
		case 0:
			k.util = make([]sim.Time, 0, w)
		case 1:
			// A second row: the node ticks on, so its history takes the
			// whole ring at once.
			k.util = append(make([]sim.Time, 0, k.utilLen*w), k.util...)
		}
		k.util = append(append(k.util, t), busy[:w-1]...)
		return
	}
	row := k.util[k.utilHead*w:][:w]
	row[0] = t
	copy(row[1:], busy[:w-1])
	if k.utilHead++; k.utilHead == k.utilLen {
		k.utilHead = 0
	}
}

// sampleUtil records each CPU's cumulative busy time; called from the
// timer tick.
func (k *KernelStats) sampleUtil() {
	var busy [MaxCPU]sim.Time
	for i, c := range k.node.cpus {
		busy[i] = c.cumBusy()
	}
	k.putUtil(k.node.Eng.Now(), &busy)
}

// replayUtil takes the rows a node parked at p0 took in its virtual
// ticks — the one at p0+i·Tick read the p0 row plus i tick services —
// from the oldest one the history still holds after the last of them.
func (k *KernelStats) replayUtil(p0 sim.Time, v vticks) {
	n := k.node
	tick, cost := n.Cfg.Tick, n.Cfg.TimerIRQCost
	first := int64(1)
	if f := v.n - int64(k.utilLen) + 1; f > first {
		first = f
	}
	var b0, busy [MaxCPU]sim.Time
	copy(b0[:], k.newestRow()[1:])
	for j := first; j <= v.n; j++ {
		for i := range n.cpus {
			busy[i] = b0[i] + sim.Time(j)*cost
		}
		k.putUtil(p0+sim.Time(j)*tick, &busy)
	}
}

// utilPerMille is UtilPerMille at virtual-tick state v. The base is the
// newest row at least a window old; on a parked node whose window
// starts after the first virtual tick that row is virtual too, and has
// a closed form.
func (k *KernelStats) utilPerMille(c *cpu, v vticks) int {
	n := k.node
	now := n.Eng.Now()
	busyNow := n.busy(c, v)
	target := now - n.Cfg.UtilWindow
	var baseT, baseBusy sim.Time
	switch {
	case n.parked && target-n.p0() >= n.Cfg.Tick:
		p0 := n.p0()
		kb := (target - p0) / n.Cfg.Tick
		baseT, baseBusy = p0+kb*n.Cfg.Tick, k.newestRow()[1+c.id]+kb*n.Cfg.TimerIRQCost
	case len(k.util) > 0:
		// The rows ascend in time through the ring's two runs, so the
		// base is in the newer run once that run starts by target.
		w := k.rowLen()
		h, newer := k.utilHist()
		if len(newer) > 0 && newer[0] <= target {
			h = newer
		}
		baseT, baseBusy = h[0], h[1+c.id]
		for r := w; r < len(h) && h[r] <= target; r += w {
			baseT, baseBusy = h[r], h[r+1+c.id]
		}
	}
	span := now - baseT
	if span <= 0 {
		return 0
	}
	u := int64(busyNow-baseBusy) * 1000 / int64(span)
	if u < 0 {
		u = 0
	}
	if u > 1000 {
		u = 1000
	}
	return int(u)
}

// SetConnFn installs the live connection-count source (e.g. a server's
// queue depth plus in-service requests) snapshots report.
func (k *KernelStats) SetConnFn(fn func() int) { k.connFn = fn }

// Conns returns the current open-connection count.
func (k *KernelStats) Conns() int {
	if k.connFn != nil {
		return k.connFn()
	}
	return 0
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

// AddNetRx / AddNetTx account network traffic (called by simnet).
func (k *KernelStats) AddNetRx(bytes int) {
	k.NetRxBytes += uint64(bytes)
}

// AddNetTx accounts one transmitted packet of the given size.
func (k *KernelStats) AddNetTx(bytes int) {
	k.NetTxBytes += uint64(bytes)
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

// CumIRQHard returns the number of hard interrupts CPU cpuID has taken.
func (k *KernelStats) CumIRQHard(cpuID int) uint64 {
	if cpuID < 0 || cpuID >= len(k.node.cpus) {
		return 0
	}
	return k.cumHard(cpuID, k.node.catchUp())
}

// CumIRQSoft returns the number of interrupts with softirq work CPU
// cpuID has taken. Timer ticks have none, so parking never moves it.
func (k *KernelStats) CumIRQSoft(cpuID int) uint64 {
	if cpuID < 0 || cpuID >= len(k.node.cpus) {
		return 0
	}
	return k.node.cpus[cpuID].irqSoft
}

func (k *KernelStats) cumHard(cpuID int, v vticks) uint64 {
	c := k.node.cpus[cpuID].irqHard
	if k.node.Cfg.TimerIRQCost > 0 {
		c += uint64(v.n)
	}
	return c
}

// Snapshot captures the current kernel statistics. It has no simulated
// cost: cost is charged by the access path (ReadProc syscall, or none
// at all for a DMA read).
func (k *KernelStats) Snapshot() Snapshot {
	var s Snapshot
	k.SnapshotInto(&s)
	return s
}

// SnapshotInto is Snapshot written into *s, every field assigned in
// place: the DMA-instant path calls it into a reused buffer.
func (k *KernelStats) SnapshotInto(s *Snapshot) {
	n := k.node
	v := n.catchUp()
	s.Time = n.Eng.Now()
	s.NodeID = n.ID
	s.NrRunning = int(n.nrRunnable)
	s.NrTasks = len(n.tasks)
	s.NumCPU = len(n.cpus)
	s.MemUsedKB = k.memUsedKB
	s.MemTotalKB = n.Cfg.MemTotalKB
	s.NetRxBytes = k.NetRxBytes
	s.NetTxBytes = k.NetTxBytes
	s.Conns = k.Conns()
	s.CtxSwitch = k.CtxSwitches
	for i, c := range n.cpus {
		s.UtilPerMille[i] = k.utilPerMille(c, v)
		s.IrqPendingHard[i], s.IrqPendingSoft[i] = n.pendingIRQ(c, v)
		s.CumIRQ[i] = k.cumHard(i, v) + c.irqSoft
	}
	for i := len(n.cpus); i < MaxCPU; i++ {
		s.UtilPerMille[i], s.IrqPendingHard[i], s.IrqPendingSoft[i], s.CumIRQ[i] = 0, 0, 0, 0
	}
}
