// Package admission implements the paper's motivating use case (§1):
// admission control driven by monitored resource usage. "Several
// systems rely on the cluster resource usage information for admission
// control of requests — an inaccurate resource usage information could
// potentially lead to lost revenue."
//
// The controller sits in front of the dispatcher: a request is
// admitted only if some back-end's monitored load index is below the
// threshold. Both failure modes of inaccurate monitoring are visible:
//
//   - stale-low records over-admit: requests pile onto saturated
//     servers and miss their latency objective;
//   - stale-high records over-reject: capacity that has already
//     drained goes unused (lost revenue).
//
// The controller reads the front end's loadbalance.View, the one the
// weighted dispatch policies embed: its back-ends, their records, the
// candidate filter and the degraded handicap, so admission and routing
// agree on which back-ends are capacity. It adds only its own Weights
// and Threshold, which differ from the policy's under e-RDMA-Sync.
package admission

import (
	"rdmamon/internal/core"
	"rdmamon/internal/loadbalance"
)

// Config tunes the controller.
type Config struct {
	// Threshold is the load index above which a back-end is considered
	// full. A request is rejected when every back-end is full.
	Threshold float64
	Weights   core.Weights
}

// Controller decides request admission from monitored load records.
type Controller struct {
	Cfg  Config
	view *loadbalance.View

	Admitted uint64
	Rejected uint64
}

// New creates a controller reading back-ends and records through view.
func New(cfg Config, view *loadbalance.View) *Controller {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 0.85 // reject once the whole cluster looks > ~85% loaded
	}
	if cfg.Weights == (core.Weights{}) {
		cfg.Weights = core.DefaultWeights()
	}
	return &Controller{Cfg: cfg, view: view}
}

// Admit decides one request over the view's back-ends. A back-end
// with no record yet counts as available (optimistic start). One the
// view filters out never does: the dispatcher will never route to a
// quarantined back-end, so counting its (stale, often idle-looking)
// record as spare capacity admits requests the cluster cannot serve.
// A degraded one carries the same DefaultDegradedPenalty the dispatch
// policies apply.
func (c *Controller) Admit() bool {
	v := c.view
	ok := false
	for _, b := range v.Backends {
		if !v.Holds(b) || v.Quarantined(b) {
			continue
		}
		rec, have := v.Source(b)
		if !have {
			ok = true
			break
		}
		idx := c.Cfg.Weights.IndexOf(&rec)
		if v.IsDegraded(b) {
			idx += loadbalance.DefaultDegradedPenalty
		}
		if idx < c.Cfg.Threshold {
			ok = true
			break
		}
	}
	if ok {
		c.Admitted++
	} else {
		c.Rejected++
	}
	return ok
}
