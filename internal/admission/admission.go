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

	// Eligible, if set, reports whether a back-end may serve at all
	// (the monitor's health verdict). Quarantined and crashed back-ends
	// are skipped outright: the dispatcher will never route to them, so
	// counting their (stale, often idle-looking) records as spare
	// capacity admits requests the cluster cannot actually serve.
	Eligible func(backend int) bool

	// Degraded, if set, reports a back-end currently monitored over its
	// fallback transport. Its index is handicapped by
	// loadbalance.DefaultDegradedPenalty — the same handicap the
	// dispatch policy applies — so admission and routing agree on how
	// much headroom a shakily-monitored back-end really has.
	Degraded func(backend int) bool
}

// Defaults returns a controller configuration that starts rejecting
// when the whole cluster looks > ~85% loaded.
func Defaults() Config {
	return Config{Threshold: 0.85, Weights: core.DefaultWeights()}
}

// Controller decides request admission from monitored load records.
type Controller struct {
	Cfg    Config
	Source loadbalance.LoadSource

	Admitted uint64
	Rejected uint64
}

// New creates a controller reading records from source.
func New(cfg Config, source loadbalance.LoadSource) *Controller {
	if cfg.Threshold <= 0 {
		cfg.Threshold = Defaults().Threshold
	}
	if cfg.Weights == (core.Weights{}) {
		cfg.Weights = Defaults().Weights
	}
	return &Controller{Cfg: cfg, Source: source}
}

// Admit decides one request given the candidate back-ends. A back-end
// with no record yet counts as available (optimistic start); an
// ineligible one never does.
func (c *Controller) Admit(backends []int) bool {
	ok := false
	for _, b := range backends {
		if c.Cfg.Eligible != nil && !c.Cfg.Eligible(b) {
			continue
		}
		rec, have := c.Source(b)
		if !have {
			ok = true
			break
		}
		idx := c.Cfg.Weights.IndexOf(&rec)
		if c.Cfg.Degraded != nil && c.Cfg.Degraded(b) {
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
