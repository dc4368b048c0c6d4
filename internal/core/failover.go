package core

// Transport identifies which channel served a probe. The paper's RDMA
// schemes prefer the one-sided path; the failover machinery keeps a
// request/response socket channel in reserve for when the RDMA path
// breaks (MR invalidated, NIC down, transport timeouts).
type Transport int

const (
	// TransportRDMA is the preferred one-sided path.
	TransportRDMA Transport = iota
	// TransportSocket is the standby request/response path.
	TransportSocket
	// TransportPush is the agent-initiated one-sided write path of the
	// hybrid scheme: the back-end RDMA-Writes a delta record into the
	// front-end's aggregation slot instead of waiting to be read.
	TransportPush
)

func (t Transport) String() string {
	switch t {
	case TransportRDMA:
		return "rdma"
	case TransportSocket:
		return "socket"
	case TransportPush:
		return "push"
	}
	return "?"
}

// The breaker's thresholds, beside the health machine's
// quarantineAfter and probationOK:
//
//   - tripAfter consecutive primary-transport failures trip the breaker
//     onto the socket standby. It is deliberately below quarantineAfter,
//     so a back-end whose RDMA path alone is broken degrades to socket
//     probing before the health machine condemns it.
//   - failBackAfter consecutive re-arm successes return probing to RDMA.
//     With reArmEvery it is the fail-back hysteresis: one lucky read
//     after a flap does not bounce the breaker.
//   - reArmEvery: every reArmEvery-th fallback cycle while tripped
//     carries a background re-arm probe of the RDMA path, so a broken
//     path is retested at a quarter of the probe rate and a dead NIC
//     costs a trickle of wasted reads, not a full probe budget.
//
// A flap-free fail-back therefore takes failBackAfter·reArmEvery = 8
// fallback cycles.
const (
	tripAfter     = 2
	failBackAfter = 2
	reArmEvery    = 4
)

// Failover is the transport breaker for one monitored back-end:
//
//	armed --fail*tripAfter--> tripped (probe via socket standby)
//	tripped --re-arm ok*failBackAfter--> armed (probe via RDMA again)
//
// While tripped, the caller keeps probing over the socket standby every
// cycle (the back-end stays monitored, stale-but-alive per the paper's
// Table 1 trade-offs) and issues a low-rate background re-arm probe
// over RDMA; only failBackAfter consecutive re-arm successes fail the
// breaker back, so a flapping path stays on the reliable transport.
//
// The machine is deliberately free of clocks and transports: callers
// (the simulated Prober, the live Probe) drive it with outcomes, which
// keeps a run under a fault plan exactly as deterministic as the
// engine driving it.
type Failover struct {
	tripped  bool
	failRun  int // consecutive primary failures while armed
	rearmRun int // consecutive re-arm successes while tripped
	cycle    int // fallback cycles since trip, for the re-arm schedule

	// Trips / FailBacks count breaker transitions.
	Trips     uint64
	FailBacks uint64

	// OnTrip / OnFailBack, if set, observe transitions as they happen
	// (the chaos invariant checker timestamps failover latency here).
	OnTrip     func()
	OnFailBack func()
}

// Tripped reports whether probing is currently failed over to the
// socket standby.
func (f *Failover) Tripped() bool { return f.tripped }

// PrimaryOK records a successful probe over the primary transport.
func (f *Failover) PrimaryOK() {
	f.failRun = 0
}

// PrimaryFail records a failed probe over the primary transport and
// reports whether this failure tripped the breaker.
func (f *Failover) PrimaryFail() bool {
	if f.tripped {
		return false
	}
	f.failRun++
	if f.failRun < tripAfter {
		return false
	}
	f.tripped = true
	f.failRun = 0
	f.rearmRun = 0
	f.cycle = 0
	f.Trips++
	if f.OnTrip != nil {
		f.OnTrip()
	}
	return true
}

// ShouldReArm is called once per fallback probe cycle while tripped and
// reports whether this cycle should carry a background re-arm probe of
// the RDMA path. The first fallback cycle never re-arms (the path just
// proved broken); afterwards every reArmEvery-th cycle does.
func (f *Failover) ShouldReArm() bool {
	if !f.tripped {
		return false
	}
	f.cycle++
	return f.cycle%reArmEvery == 0
}

// ReArmOK records a successful re-arm probe and reports whether the
// breaker just failed back to the primary transport.
func (f *Failover) ReArmOK() bool {
	if !f.tripped {
		return false
	}
	f.rearmRun++
	if f.rearmRun < failBackAfter {
		return false
	}
	f.tripped = false
	f.failRun = 0
	f.rearmRun = 0
	f.cycle = 0
	f.FailBacks++
	if f.OnFailBack != nil {
		f.OnFailBack()
	}
	return true
}

// ReArmFail records a failed re-arm probe (the path is still broken;
// the success run resets — fail-back needs consecutive proof).
func (f *Failover) ReArmFail() {
	f.rearmRun = 0
}
