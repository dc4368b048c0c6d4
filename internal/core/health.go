package core

// Health is the monitor's belief about a back-end, driven purely by
// probe outcomes. The machine is deliberately conservative in both
// directions: a back-end is not condemned on one lost probe (transient
// loss is routine on a lossy link), and a condemned back-end is not
// trusted again on one good probe (a flapping host should not bounce
// in and out of the dispatch set).
//
//	Healthy --fail--> Suspect --fail*N--> Quarantined
//	Quarantined --ok--> Probation --ok*M--> Healthy
//	Suspect --ok--> Healthy         Probation --fail--> Quarantined
//
// Degraded is a sub-state of "alive": the back-end answers probes over
// its standby (socket) transport while the preferred RDMA path is
// down. It follows the same transitions as Healthy — fallback
// successes land in Degraded instead of Healthy, a primary-transport
// success promotes Degraded to Healthy, and failures demote it through
// Suspect exactly like a healthy back-end.
type Health int

const (
	// Healthy: probes succeed; full member of the dispatch set.
	Healthy Health = iota
	// Suspect: at least one recent probe failed, but fewer than the
	// quarantine threshold in a row. Still dispatched to.
	Suspect
	// Quarantined: enough consecutive failures that the back-end is
	// presumed dead. Excluded from dispatch.
	Quarantined
	// Probation: a quarantined back-end answered a probe; it must
	// answer several in a row before traffic returns.
	Probation
	// Degraded: alive and answering probes, but only over the fallback
	// transport (the RDMA path is broken and the breaker is tripped).
	// Eligible for dispatch — stale-but-alive monitoring beats starving
	// a working server of traffic.
	Degraded
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Quarantined:
		return "quarantined"
	case Probation:
		return "probation"
	case Degraded:
		return "degraded"
	}
	return "?"
}

// Eligible reports whether a back-end in this state should receive
// dispatched traffic. Degraded is eligible: the server works, only the
// fast monitoring path is down.
func (h Health) Eligible() bool { return h == Healthy || h == Suspect || h == Degraded }

// quarantineAfter is the number of consecutive failures that move
// Suspect to Quarantined; probationOK the number of consecutive
// successes that move Probation to Healthy.
const (
	quarantineAfter = 3
	probationOK     = 2
)

// HealthTracker runs the health state machine for one back-end.
// The zero value is ready to use.
type HealthTracker struct {
	state     Health
	failRun   int
	okRun     int
	Failures  uint64 // total failed probes observed
	Successes uint64 // total successful probes observed
}

// State returns the current health state.
func (ht *HealthTracker) State() Health { return ht.state }

// Fail records a failed probe and returns the new state.
func (ht *HealthTracker) Fail() Health {
	ht.Failures++
	ht.okRun = 0
	ht.failRun++
	switch ht.state {
	case Healthy, Suspect, Degraded:
		ht.state = Suspect
		if ht.failRun >= quarantineAfter {
			ht.state = Quarantined
		}
	case Probation:
		// One bad probe during probation sends it straight back. Pin
		// the failure run to the quarantine threshold so the counter
		// matches the state it just entered — a stale low count here
		// would make the next demotion cheaper than the first one.
		ht.state = Quarantined
		ht.failRun = quarantineAfter
	}
	return ht.state
}

// OK records a successful probe over the primary transport and returns
// the new state.
func (ht *HealthTracker) OK() Health { return ht.ok(Healthy) }

// DegradedOK records a successful probe over the fallback transport:
// the back-end is alive, but only reachable the slow way. It follows
// the same probation discipline as OK, landing in Degraded instead of
// Healthy.
func (ht *HealthTracker) DegradedOK() Health { return ht.ok(Degraded) }

// ok advances the machine on a success whose terminal state is target
// (Healthy for the primary transport, Degraded for the fallback).
func (ht *HealthTracker) ok(target Health) Health {
	ht.Successes++
	ht.failRun = 0
	ht.okRun++
	switch ht.state {
	case Healthy, Suspect, Degraded:
		ht.state = target
	case Quarantined:
		ht.state = Probation
		if ht.okRun >= probationOK {
			ht.state = target
		}
	case Probation:
		if ht.okRun >= probationOK {
			ht.state = target
		}
	}
	return ht.state
}
