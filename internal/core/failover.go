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

// FailoverConfig tunes a per-backend transport breaker. The zero value
// takes every default.
type FailoverConfig struct {
	// TripAfter is the number of consecutive primary-transport failures
	// that trips the breaker onto the socket standby. Default 2 —
	// deliberately below the health machine's quarantineAfter of 3,
	// so a back-end whose RDMA path alone is broken degrades to socket
	// probing before the health machine condemns it.
	TripAfter int
	// FailBackAfter is the number of consecutive re-arm successes
	// required before probing returns to RDMA. Default 2. Together with
	// ReArmEvery this is the fail-back hysteresis: one lucky read after
	// a flap does not bounce the breaker.
	FailBackAfter int
	// ReArmEvery issues a background re-arm probe of the RDMA path on
	// every Nth fallback cycle while tripped. Default 4: a broken path
	// is retested at a quarter of the probe rate, so a dead NIC costs a
	// trickle of wasted reads, not a full probe budget.
	ReArmEvery int
}

func (c FailoverConfig) withDefaults() FailoverConfig {
	if c.TripAfter <= 0 {
		c.TripAfter = 2
	}
	if c.FailBackAfter <= 0 {
		c.FailBackAfter = 2
	}
	if c.ReArmEvery <= 0 {
		c.ReArmEvery = 4
	}
	return c
}

// Failover is the transport breaker for one monitored back-end:
//
//	armed --fail*TripAfter--> tripped (probe via socket standby)
//	tripped --re-arm ok*FailBackAfter--> armed (probe via RDMA again)
//
// While tripped, the caller keeps probing over the socket standby every
// cycle (the back-end stays monitored, stale-but-alive per the paper's
// Table 1 trade-offs) and issues a low-rate background re-arm probe
// over RDMA; only FailBackAfter consecutive re-arm successes fail the
// breaker back, so a flapping path stays on the reliable transport.
//
// The machine is deliberately free of clocks and transports: callers
// (the simulated Prober, the live Probe) drive it with outcomes, which
// keeps a run under a fault plan exactly as deterministic as the
// engine driving it.
type Failover struct {
	Cfg FailoverConfig

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
	if f.failRun < f.Cfg.withDefaults().TripAfter {
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
// proved broken); afterwards every ReArmEvery-th cycle does.
func (f *Failover) ShouldReArm() bool {
	if !f.tripped {
		return false
	}
	f.cycle++
	return f.cycle%f.Cfg.withDefaults().ReArmEvery == 0
}

// ReArmOK records a successful re-arm probe and reports whether the
// breaker just failed back to the primary transport.
func (f *Failover) ReArmOK() bool {
	if !f.tripped {
		return false
	}
	f.rearmRun++
	if f.rearmRun < f.Cfg.withDefaults().FailBackAfter {
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
