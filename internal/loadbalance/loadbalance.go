// Package loadbalance provides the dispatcher policies used in the
// paper's application-level evaluation: the IBM WebSphere-style
// weighted policies driven by monitored load records, plus round-robin
// and random baselines.
//
// Both weighted policies embed one View, a front end's dispatch view:
// its back-ends, their record source, the candidate filter (Holds for
// the claim, Quarantined for the monitor's verdict), the degraded
// handicap, the local-traffic blend and the claimed-only fallback. Each
// adds only its own rule: WeightedLeastLoad the argmin with its Updates
// memo and trend term, WeightedProportional the weighted draw with its
// staleness decay. Admission control (internal/admission) reads the
// same View.
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
	Pick() int
}

// RoundRobin cycles through the back-ends.
type RoundRobin struct {
	Backends []int
	next     int
}

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

// Pick implements Policy.
func (r *Random) Pick() int {
	return r.Backends[r.Rng.Intn(len(r.Backends))]
}

// View is one front end's dispatch view of its back-ends: the state
// both weighted policies embed and admission control reads, so the
// three agree on which back-ends a request may use and how a monitor
// verdict handicaps one. Its func fields are consulted afresh on every
// decision (least-load reads Source only when Updates moved); admission
// scores records with its own Weights.
type View struct {
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
	// policies fall back to considering all of them — sending a request
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

	// Degraded, if set, reports a back-end currently monitored over its
	// fallback transport (the monitor's Degraded verdict). Unlike
	// Exclude it keeps the back-end in the dispatch set — that is the
	// point of failover — but its index is handicapped by
	// DefaultDegradedPenalty, steering marginal traffic toward back-ends
	// whose fast monitoring path still works.
	Degraded func(backend int) bool
	// DegradedPicks counts picks that landed on a degraded back-end.
	DegradedPicks uint64

	pool []int // scratch: the claimed fallback pool
}

// Holds is the first half of the candidate filter: whether this front
// end may route to b at all (always, without Claimed).
func (v *View) Holds(b int) bool { return v.Claimed == nil || v.Claimed(b) }

// Quarantined is the second half: the monitor's quarantine verdict on
// a held back-end. The two halves are separate methods so each inlines
// into the pick loops.
func (v *View) Quarantined(b int) bool { return v.Exclude != nil && v.Exclude(b) }

// IsDegraded reports b monitored over its fallback transport; its
// index then takes DefaultDegradedPenalty.
func (v *View) IsDegraded(b int) bool { return v.Degraded != nil && v.Degraded(b) }

// local is the dispatcher's recent-traffic share of b as an index
// term: the fair share adds LocalWeight/2, and no share more than
// LocalWeight. half is len(Backends)/2. Callers add it only when
// LocalFrac is set and LocalWeight is positive.
func (v *View) local(b int, half float64) float64 {
	return v.LocalWeight * min(v.LocalFrac(b)*half, 1)
}

// fallback is the pick when no candidate passed the filter: uniform
// (the first without Rng) over the back-ends this front end holds,
// drawn from a scratch pool so it allocates nothing — never an
// unclaimed shard, which belongs to another dispatcher. -1 when it
// holds none.
func (v *View) fallback() int {
	pool := v.Backends
	if v.Claimed != nil {
		v.pool = v.pool[:0]
		for _, b := range v.Backends {
			if v.Claimed(b) {
				v.pool = append(v.pool, b)
			}
		}
		pool = v.pool
	}
	if len(pool) == 0 {
		return -1
	}
	if v.Rng == nil {
		return pool[0]
	}
	return pool[v.Rng.Intn(len(pool))]
}

// WeightedLeastLoad is the WebSphere-style policy (§5.2.1): compute
// the weighted load index of each back-end from its newest monitored
// record and send the request to the least-loaded one. Ties are broken
// randomly; back-ends with no record yet score zero (optimistic, like
// a freshly started system). To the View it adds the Updates memo and
// the trend projection.
type WeightedLeastLoad struct {
	View

	// Updates, if set, counts a back-end's records, moving whenever Source's
	// answer may: Pick re-scores a back-end only then or when Weights change.
	Updates func(backend int) uint64

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
	// TrendPicks counts picks where the trend projection reordered the
	// deterministic level-only ranking — how often the signal actually
	// steered traffic.
	TrendPicks uint64

	memoN   []uint64     // by back-end ID: update count + 1 when scored, 0 never
	memoIdx []float64    // by back-end ID: that score, under memoW
	memoW   core.Weights // the Weights the memo was scored under
}

// DefaultDegradedPenalty is the load-index handicap applied to a
// back-end monitored over its fallback transport. Admission control
// shares it, so a degraded back-end is handicapped identically whether
// a request is being routed or admitted.
const DefaultDegradedPenalty = 0.05

// DefaultTrendClamp bounds the trend term to ±DefaultTrendClamp index
// units: the slope may bias the choice but never fabricate unbounded
// load, so a noisy or adversarial trend cannot starve a genuinely
// least-loaded back-end — anything lower on level by more than
// 2×DefaultTrendClamp than the rest wins regardless of every slope.
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
	return max(-DefaultTrendClamp, min(d, DefaultTrendClamp))
}

// index is b's load index (0 without a record), memoized under Updates.
func (w *WeightedLeastLoad) index(b int) float64 {
	var n uint64 // b's update count + 1; 0 without Updates
	if w.Updates != nil {
		for len(w.memoN) <= b {
			w.memoN, w.memoIdx = append(w.memoN, 0), append(w.memoIdx, 0)
		}
		if n = w.Updates(b) + 1; w.memoN[b] == n {
			return w.memoIdx[b]
		}
	}
	idx := 0.0
	if rec, ok := w.Source(b); ok {
		idx = w.Weights.IndexOf(&rec)
	}
	if n > 0 {
		w.memoN[b], w.memoIdx[b] = n, idx
	}
	return idx
}

// Pick implements Policy. One decision is one pass over Backends with
// O(1) work per candidate. The View's func fields are consulted afresh
// on every call; Source only as index says.
func (w *WeightedLeastLoad) Pick() int {
	if w.Updates != nil && w.Weights != w.memoW {
		clear(w.memoN)
		w.memoW = w.Weights
	}
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
	useLocal := w.LocalFrac != nil && w.LocalWeight > 0
	half := float64(len(w.Backends)) / 2 // fair share 1/N -> 0.5
	for _, b := range w.Backends {
		if !w.Holds(b) {
			continue
		}
		if w.Quarantined(b) {
			skipped = true
			continue
		}
		idx := w.index(b)
		if useLocal {
			idx += w.local(b, half)
		}
		degraded := w.IsDegraded(b)
		if degraded {
			idx += DefaultDegradedPenalty
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
	if lvlBest != projBest {
		w.TrendPicks++
	}
	if best < 0 {
		if best = w.fallback(); best < 0 {
			return -1
		}
		bestDegraded = w.IsDegraded(best)
	}
	if bestDegraded {
		w.DegradedPicks++
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
// into queueing (paper §5.2). To the View it adds the load->weight
// mapping and the staleness decay; a back-end the View filters out has
// weight zero.
type WeightedProportional struct {
	View

	// Gamma sharpens the load->weight mapping: weight = (1-index)^Gamma.
	// Zero takes the default of 2.
	Gamma float64

	// Aged, if set, is consulted instead of Source and enables the
	// staleness discount: a record older than StaleAfter contributes
	// exponentially less, decaying the weight toward uniform. Zero
	// StaleAfter disables the discount.
	Aged       AgedSource
	StaleAfter sim.Time

	weights []float64 // scratch
}

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
	useLocal := w.LocalFrac != nil && w.LocalWeight > 0
	half := float64(len(w.Backends)) / 2 // fair share 1/N -> 0.5
	for i, b := range w.Backends {
		if !w.Holds(b) {
			w.weights[i] = 0
			continue
		}
		if w.Quarantined(b) {
			w.weights[i] = 0
			skipped = true
			continue
		}
		idx := 0.0
		conf := 1.0
		switch {
		case w.Aged != nil:
			if rec, age, ok := w.Aged(b); ok {
				idx = w.Weights.IndexOf(&rec)
				if w.StaleAfter > 0 {
					conf = math.Exp(-float64(age) / float64(w.StaleAfter))
				}
			} else {
				conf = 0
			}
		case w.Source != nil:
			if rec, ok := w.Source(b); ok {
				idx = w.Weights.IndexOf(&rec)
			}
		}
		if useLocal {
			idx += w.local(b, half)
		}
		// Stale information decays toward the prior (the fleet-average
		// load of 0.5).
		idx = conf*idx + (1-conf)*0.5
		if w.IsDegraded(b) {
			idx += DefaultDegradedPenalty
		}
		free := max(1-idx, 0.02) // even a saturated-looking server keeps a trickle
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
	pick := -1
	if total > 0 {
		for i, b := range w.Backends {
			if w.weights[i] > 0 {
				pick = b // rounding-safe default: first eligible
				break
			}
		}
		if w.Rng != nil {
			x := w.Rng.Float64() * total
			for i, b := range w.Backends {
				if w.weights[i] == 0 {
					continue // filtered out: zero share
				}
				x -= w.weights[i]
				if x <= 0 {
					pick = b
					break
				}
			}
		}
	} else if pick = w.fallback(); pick < 0 {
		return -1
	}
	if w.IsDegraded(pick) {
		w.DegradedPicks++
	}
	return pick
}
