// Package loadbalance provides the dispatcher policies used in the
// paper's application-level evaluation: the IBM WebSphere-style
// weighted least-load policy driven by monitored load records, plus
// round-robin and random baselines.
package loadbalance

import (
	"math"
	"math/rand"

	"rdmamon/internal/core"
	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

// LoadSource returns the newest load record for a back-end, if any.
// It is typically (*core.Monitor).Latest with the timestamp dropped.
type LoadSource func(backend int) (wire.LoadRecord, bool)

// AgedSource additionally reports how old the record is. Policies use
// the age to discount confidence in stale information: a weight
// computed from a second-old record is worse than no weight at all
// (confidently wrong beats uniformly ignorant only when it is right).
type AgedSource func(backend int) (rec wire.LoadRecord, age sim.Time, ok bool)

// Policy picks a back-end for each request.
type Policy interface {
	Name() string
	Pick() int
}

// RoundRobin cycles through the back-ends.
type RoundRobin struct {
	Backends []int
	next     int
}

// Name implements Policy.
func (r *RoundRobin) Name() string { return "round-robin" }

// Pick implements Policy.
func (r *RoundRobin) Pick() int {
	b := r.Backends[r.next%len(r.Backends)]
	r.next++
	return b
}

// Random picks uniformly.
type Random struct {
	Backends []int
	Rng      *rand.Rand
}

// Name implements Policy.
func (r *Random) Name() string { return "random" }

// Pick implements Policy.
func (r *Random) Pick() int {
	return r.Backends[r.Rng.Intn(len(r.Backends))]
}

// WeightedLeastLoad is the WebSphere-style policy (§5.2.1): compute
// the weighted load index of each back-end from its newest monitored
// record and send the request to the least-loaded one. Ties are broken
// randomly; back-ends with no record yet score zero (optimistic, like
// a freshly started system).
type WeightedLeastLoad struct {
	Backends []int
	Weights  core.Weights
	Source   LoadSource
	Rng      *rand.Rand

	// LocalFrac, if set, supplies the dispatcher's own estimate of
	// each back-end's recent fraction of forwarded requests (1/N is
	// the fair share). Real dispatchers (WebSphere, LVS) always blend
	// such a connection-count signal with monitored load; it is what
	// keeps the policy sane when monitored records are very stale.
	LocalFrac   func(backend int) float64
	LocalWeight float64

	// Exclude, if set, removes a back-end from consideration (the
	// monitor's quarantine verdict). If every back-end is excluded the
	// policy falls back to considering all of them — sending a request
	// to a possibly-dead server beats sending it nowhere.
	Exclude func(backend int) bool

	// ExcludedPicks counts picks where at least one back-end was
	// skipped by Exclude — dispatch decisions shaped by quarantine.
	ExcludedPicks uint64

	// Claimed, if set, restricts the candidate set to back-ends whose
	// dispatch shard this front-end validly holds (active-active claim
	// arbitration). Unlike Exclude there is NO fallback onto unclaimed
	// back-ends — routing there would double-dispatch against the
	// shard's real holder — so when nothing is claimed Pick returns -1
	// and the dispatcher redirects the client to another front-end.
	Claimed func(backend int) bool
	// ClaimSkips counts picks where the claim filter removed at least
	// one back-end from consideration.
	ClaimSkips uint64

	// Slope, if set together with a positive TrendHorizon, turns on
	// trend-aware dispatch: each back-end's index is projected one
	// horizon ahead (index + slope×horizon) before comparison, so a
	// back-end ramping up stops attracting the requests that would
	// arrive exactly as it saturates, and a draining one starts
	// absorbing them early. Slope reports index units per second —
	// (*core.TrendTracker).Slope fed from history-ring reads — and
	// false when no trend is known (the back-end then projects flat).
	// nil preserves the level-only policy bit-for-bit.
	Slope func(backend int) (perSec float64, ok bool)
	// TrendHorizon is how far ahead the projection looks; a natural
	// choice is one monitoring sweep. Zero disables the trend term.
	TrendHorizon sim.Time
	// TrendClamp bounds the trend term to ±TrendClamp index units
	// (default DefaultTrendClamp): the slope may bias the choice but
	// never fabricate unbounded load, so a noisy or adversarial trend
	// cannot starve a genuinely least-loaded back-end — anything lower
	// on level by more than 2×TrendClamp than the rest wins regardless
	// of every slope.
	TrendClamp float64
	// TrendPicks counts picks where the trend projection reordered the
	// deterministic level-only ranking — how often the signal actually
	// steered traffic.
	TrendPicks uint64

	// Degraded, if set, reports a back-end currently monitored over its
	// fallback transport (the monitor's Degraded verdict). Unlike
	// Exclude it keeps the back-end in the dispatch set — that is the
	// point of failover — but its index is handicapped by
	// DegradedPenalty, steering marginal traffic toward back-ends whose
	// fast monitoring path still works.
	Degraded func(backend int) bool
	// DegradedPenalty is the load-index handicap applied when Degraded
	// reports true (default 0.05 when Degraded is set).
	DegradedPenalty float64
	// DegradedPicks counts picks that landed on a degraded back-end.
	DegradedPicks uint64

	// Picks counts per-backend selections, for imbalance diagnostics.
	Picks map[int]uint64

	pool []int // scratch: the claimed fallback pool
}

// DefaultDegradedPenalty is the load-index handicap applied to a
// back-end monitored over its fallback transport when no explicit
// penalty is configured. Admission control shares it, so a degraded
// back-end is handicapped identically whether a request is being
// routed or admitted.
const DefaultDegradedPenalty = 0.05

// DefaultTrendClamp bounds the trend projection's contribution to a
// back-end's compared index when no explicit clamp is configured.
const DefaultTrendClamp = 0.2

// trendTerm computes the clamped slope×horizon projection for b (0
// when trend dispatch is off or b's trend is unknown).
func (w *WeightedLeastLoad) trendTerm(b int) float64 {
	if w.Slope == nil || w.TrendHorizon <= 0 {
		return 0
	}
	s, ok := w.Slope(b)
	if !ok {
		return 0
	}
	d := s * (float64(w.TrendHorizon) / float64(sim.Second))
	c := w.TrendClamp
	if c <= 0 {
		c = DefaultTrendClamp
	}
	if d > c {
		d = c
	}
	if d < -c {
		d = -c
	}
	return d
}

// degradedPenalty resolves the default handicap.
func degradedPenalty(p float64) float64 {
	if p > 0 {
		return p
	}
	return DefaultDegradedPenalty
}

// appendClaimed appends the back-ends claimed holds to pool: the only
// ones the all-quarantined fallback may use, since an unclaimed shard
// belongs to another dispatcher and leaking onto it would
// double-dispatch. Callers pass their scratch slice so a pick
// allocates nothing.
func appendClaimed(pool, backends []int, claimed func(int) bool) []int {
	for _, b := range backends {
		if claimed(b) {
			pool = append(pool, b)
		}
	}
	return pool
}

// Name implements Policy.
func (w *WeightedLeastLoad) Name() string { return "weighted-least-load" }

// Pick implements Policy. One decision is one pass over Backends with
// O(1) work per candidate; Source, Exclude, LocalFrac and the other
// func fields are consulted afresh on every call.
func (w *WeightedLeastLoad) Pick() int {
	best := -1
	bestProj := 0.0 // projected index the ranking runs on
	bestIdx := 0.0  // level index: the slope-tie tie-break
	bestDegraded := false
	ties := 0
	skipped := false
	// Deterministic first-wins argmins of both rankings, to count how
	// often the trend term actually reordered the choice.
	lvlBest, projBest := -1, -1
	lvlMin, projMin := 0.0, 0.0
	claimSkipped := false
	useLocal := w.LocalFrac != nil && w.LocalWeight > 0
	half := float64(len(w.Backends)) / 2 // fair share 1/N -> 0.5
	for _, b := range w.Backends {
		if w.Claimed != nil && !w.Claimed(b) {
			claimSkipped = true
			continue
		}
		if w.Exclude != nil && w.Exclude(b) {
			skipped = true
			continue
		}
		idx := 0.0
		if rec, ok := w.Source(b); ok {
			idx = w.Weights.Index(rec)
		}
		if useLocal {
			share := w.LocalFrac(b) * half
			if share > 1 {
				share = 1
			}
			idx += w.LocalWeight * share
		}
		degraded := w.Degraded != nil && w.Degraded(b)
		if degraded {
			idx += degradedPenalty(w.DegradedPenalty)
		}
		proj := idx + w.trendTerm(b)
		if lvlBest < 0 || idx < lvlMin {
			lvlBest, lvlMin = b, idx
		}
		if projBest < 0 || proj < projMin {
			projBest, projMin = b, proj
		}
		switch {
		case best < 0 || proj < bestProj || (proj == bestProj && idx < bestIdx):
			// Rank on the projection; equal projections degrade to the
			// plain level comparison, so with the trend off (or every
			// slope equal) the policy is the level-only one.
			best, bestDegraded = b, degraded
			bestProj = proj
			bestIdx = idx
			ties = 1
		case proj == bestProj && idx == bestIdx:
			// Reservoir-sample among exact ties so equal-looking
			// back-ends share load instead of herding onto one.
			ties++
			if w.Rng != nil && w.Rng.Intn(ties) == 0 {
				best, bestDegraded = b, degraded
			}
		}
	}
	if skipped {
		w.ExcludedPicks++
	}
	if claimSkipped {
		w.ClaimSkips++
	}
	if lvlBest != projBest {
		w.TrendPicks++
	}
	if best < 0 {
		// Everything quarantined: fall back to uniform — but only over
		// back-ends this front-end actually holds.
		pool := w.Backends
		if w.Claimed != nil {
			w.pool = appendClaimed(w.pool[:0], w.Backends, w.Claimed)
			pool = w.pool
			if len(pool) == 0 {
				return -1
			}
		}
		if w.Rng != nil {
			best = pool[w.Rng.Intn(len(pool))]
		} else {
			best = pool[0]
		}
		bestDegraded = w.Degraded != nil && w.Degraded(best)
	}
	if bestDegraded {
		w.DegradedPicks++
	}
	if w.Picks != nil {
		w.Picks[best]++
	}
	return best
}

// WeightedProportional is the IBM WebSphere / Network Dispatcher
// style policy the paper cites: each back-end gets a weight derived
// from its monitored load index and requests are distributed in
// proportion to the weights. Unlike strict least-load it never herds a
// whole polling window of traffic onto one server — but a server whose
// reported load is stale keeps receiving its full share long after it
// has become hot, which is exactly how inaccurate monitoring turns
// into queueing (paper §5.2).
type WeightedProportional struct {
	Backends []int
	Weights  core.Weights
	Source   LoadSource
	Rng      *rand.Rand

	// Gamma sharpens the load->weight mapping: weight = (1-index)^Gamma.
	// Zero takes the default of 2.
	Gamma float64

	// Aged, if set, is consulted instead of Source and enables the
	// staleness discount: a record older than StaleAfter contributes
	// exponentially less, decaying the weight toward uniform. Zero
	// StaleAfter disables the discount.
	Aged       AgedSource
	StaleAfter sim.Time

	// LocalFrac / LocalWeight: as in WeightedLeastLoad.
	LocalFrac   func(backend int) float64
	LocalWeight float64

	// Exclude / ExcludedPicks: as in WeightedLeastLoad. An excluded
	// back-end's weight is zero, so its traffic share is zero while
	// quarantined; uniform fallback if everything is excluded.
	Exclude       func(backend int) bool
	ExcludedPicks uint64

	// Claimed / ClaimSkips: as in WeightedLeastLoad — an unclaimed
	// back-end's weight is zero with no fallback onto it; Pick returns
	// -1 when this front-end holds nothing.
	Claimed    func(backend int) bool
	ClaimSkips uint64

	// Degraded / DegradedPenalty / DegradedPicks: as in
	// WeightedLeastLoad — degraded back-ends keep a (handicapped)
	// traffic share rather than being zeroed like quarantined ones.
	Degraded        func(backend int) bool
	DegradedPenalty float64
	DegradedPicks   uint64

	// Picks counts per-backend selections.
	Picks map[int]uint64

	weights []float64 // scratch
	pool    []int     // scratch: the claimed fallback pool
}

// Name implements Policy.
func (w *WeightedProportional) Name() string { return "weighted-proportional" }

// Pick implements Policy.
func (w *WeightedProportional) Pick() int {
	gamma := w.Gamma
	if gamma <= 0 {
		gamma = 2
	}
	if cap(w.weights) < len(w.Backends) {
		w.weights = make([]float64, len(w.Backends))
	}
	w.weights = w.weights[:len(w.Backends)]
	total := 0.0
	skipped := false
	claimSkipped := false
	useLocal := w.LocalFrac != nil && w.LocalWeight > 0
	half := float64(len(w.Backends)) / 2 // fair share 1/N -> 0.5
	for i, b := range w.Backends {
		if w.Claimed != nil && !w.Claimed(b) {
			w.weights[i] = 0
			claimSkipped = true
			continue
		}
		if w.Exclude != nil && w.Exclude(b) {
			w.weights[i] = 0
			skipped = true
			continue
		}
		idx := 0.0
		conf := 1.0
		switch {
		case w.Aged != nil:
			if rec, age, ok := w.Aged(b); ok {
				idx = w.Weights.Index(rec)
				if w.StaleAfter > 0 {
					conf = math.Exp(-float64(age) / float64(w.StaleAfter))
				}
			} else {
				conf = 0
			}
		case w.Source != nil:
			if rec, ok := w.Source(b); ok {
				idx = w.Weights.Index(rec)
			}
		}
		if useLocal {
			share := w.LocalFrac(b) * half
			if share > 1 {
				share = 1
			}
			idx += w.LocalWeight * share
		}
		// Stale information decays toward the prior (the fleet-average
		// load of 0.5).
		idx = conf*idx + (1-conf)*0.5
		if w.Degraded != nil && w.Degraded(b) {
			idx += degradedPenalty(w.DegradedPenalty)
		}
		free := 1 - idx
		if free < 0.02 {
			free = 0.02 // even a saturated-looking server keeps a trickle
		}
		wt := free
		for g := 1.0; g < gamma; g++ {
			wt *= free
		}
		w.weights[i] = wt
		total += wt
	}
	if skipped {
		w.ExcludedPicks++
	}
	if claimSkipped {
		w.ClaimSkips++
	}
	// The quarantine fallback pool: all back-ends, or only the claimed
	// ones — never leak onto a shard another front-end holds.
	pool := w.Backends
	if w.Claimed != nil {
		w.pool = appendClaimed(w.pool[:0], w.Backends, w.Claimed)
		pool = w.pool
		if len(pool) == 0 {
			return -1
		}
	}
	pick := pool[0]
	if total > 0 {
		for i, b := range w.Backends {
			if w.weights[i] > 0 {
				pick = b // rounding-safe default: first eligible
				break
			}
		}
	}
	switch {
	case total > 0 && w.Rng != nil:
		x := w.Rng.Float64() * total
		for i, b := range w.Backends {
			if w.weights[i] == 0 {
				continue // excluded: zero share while quarantined
			}
			x -= w.weights[i]
			if x <= 0 {
				pick = b
				break
			}
		}
	case total == 0 && w.Rng != nil:
		// Everything quarantined: uniform over the pool beats
		// dispatching every request to its first entry.
		pick = pool[w.Rng.Intn(len(pool))]
	}
	if w.Degraded != nil && w.Degraded(pick) {
		w.DegradedPicks++
	}
	if w.Picks != nil {
		w.Picks[pick]++
	}
	return pick
}

// Imbalance returns max/mean of the per-backend pick counts (1.0 is
// perfectly balanced). Requires Picks to be non-nil.
func (w *WeightedLeastLoad) Imbalance() float64 {
	if len(w.Picks) == 0 {
		return 1
	}
	var sum, max uint64
	for _, b := range w.Backends {
		c := w.Picks[b]
		sum += c
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(w.Backends))
	return float64(max) / mean
}
