package faults

import (
	"math/rand"

	"rdmamon/internal/sim"
)

// ChaosConfig bounds a randomized fault plan. The zero value of every
// count takes a default; Backends and Horizon are required.
type ChaosConfig struct {
	// Backends is the number of back-end nodes (IDs 1..Backends; node 0
	// is the front-end).
	Backends int
	// Horizon is the run length the plan must fit inside. Every fault
	// window settles by ~75% of it, leaving a quiet tail in which the
	// invariant checker can observe recovery (fail-back, probation)
	// without another fault landing on top.
	Horizon sim.Time

	// Crashes is how many distinct back-ends crash and restart
	// (default 2, capped at Backends).
	Crashes int
	// LinkFaults is how many lossy/laggy link windows to open
	// (default 2).
	LinkFaults int
	// Partitions is how many front-end/back-end partition windows to
	// open (default 1).
	Partitions int
	// MRInvalidations is how many memory-region revocations to schedule,
	// on back-ends distinct from the crashed ones (default 2).
	MRInvalidations int

	// FrontEnds lists front-end replica node IDs eligible for
	// front-end faults. Empty disables them entirely — and, because
	// front-end draws happen strictly after every back-end draw, a
	// config without FrontEnds consumes exactly the RNG stream it did
	// before HA existed, keeping historical plans bit-identical.
	FrontEnds []int
	// Witness is the claim witness node ID (the target of front-end
	// partition windows).
	Witness int
	// FECrashes, FEFreezes and FEPartitions count front-end fault
	// windows (each defaults to 1 when FrontEnds is non-empty).
	// Victims are distinct across all three kinds, so with three
	// replicas at most two are ever disturbed at once and a standby
	// remains to take the primary claim.
	FECrashes    int
	FEFreezes    int
	FEPartitions int

	// ClaimStalls counts claim-stall windows for active-active
	// clusters: alternating front-end freezes long enough to orphan
	// held claims (the survivors must reclaim, the thawed holder must
	// fence) and front-end/witness partitions landing mid-CAS-round
	// (renewals time out, validity lapses, claims drift to replicas
	// that can still reach the witness). Deliberately NOT defaulted on:
	// claim-stall draws happen strictly after every draw that existed
	// before them, so any config leaving this zero consumes exactly the
	// RNG stream it always did and historical (seed, cfg) plans replay
	// bit-identically.
	ClaimStalls int
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Crashes == 0 {
		c.Crashes = 2
	}
	if c.LinkFaults == 0 {
		c.LinkFaults = 2
	}
	if c.Partitions == 0 {
		c.Partitions = 1
	}
	if c.MRInvalidations == 0 {
		c.MRInvalidations = 2
	}
	if c.Crashes > c.Backends {
		c.Crashes = c.Backends
	}
	if len(c.FrontEnds) > 0 {
		if c.FECrashes == 0 {
			c.FECrashes = 1
		}
		if c.FEFreezes == 0 {
			c.FEFreezes = 1
		}
		if c.FEPartitions == 0 {
			c.FEPartitions = 1
		}
	}
	return c
}

// RandomPlan generates a seeded random fault plan within cfg's bounds.
// The same (seed, cfg) pair always yields the same plan — the chaos
// harness's bit-identical-replay property starts here.
//
// Two deliberate restrictions keep the plan's effects attributable:
//
//   - Link faults perturb only the forward direction (front-end ->
//     back-end), and no fault duplicates a message. Requests and one-sided reads get
//     dropped and delayed; probe replies travel clean, so a record
//     that does arrive arrives in order and the sequence-regression
//     invariant observes the transport, not reply reordering.
//   - MR invalidations land on back-ends that do not also crash, so a
//     "probing survived an invalidation" observation is not an
//     artifact of the restart having re-registered everything anyway.
func RandomPlan(seed int64, cfg ChaosConfig) Plan {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	h := float64(cfg.Horizon)
	t := func(lo, hi float64) sim.Time { // uniform draw in [lo*H, hi*H)
		return sim.Time(h * (lo + (hi-lo)*rng.Float64()))
	}
	plan := Plan{Seed: seed}

	// Crashes: distinct victims, restarting well before the horizon.
	victims := rng.Perm(cfg.Backends)
	crashed := make(map[int]bool)
	for i := 0; i < cfg.Crashes; i++ {
		node := victims[i] + 1
		crashed[node] = true
		at := t(0.10, 0.45)
		plan.Crashes = append(plan.Crashes, Crash{
			Node: node, At: at, RestartAt: at + t(0.05, 0.20),
		})
	}

	// Link faults: forward-direction loss/latency windows against
	// random back-ends, closed by 0.75H.
	for i := 0; i < cfg.LinkFaults; i++ {
		start := t(0.10, 0.40)
		end := start + t(0.10, 0.30)
		if lim := sim.Time(0.75 * h); end > lim {
			end = lim
		}
		plan.Links = append(plan.Links, LinkFault{
			From: 0, To: rng.Intn(cfg.Backends) + 1,
			Start: start, End: end,
			Drop:      0.20 + 0.30*rng.Float64(),
			DelayProb: 0.10 + 0.20*rng.Float64(),
			DelayMin:  1 * sim.Millisecond,
			DelayMax:  1*sim.Millisecond + sim.Time(rng.Int63n(int64(4*sim.Millisecond))),
		})
	}

	// Partitions: the front-end loses a small back-end subset, closed
	// by 0.70H.
	for i := 0; i < cfg.Partitions; i++ {
		size := 1 + rng.Intn(max(1, cfg.Backends/4))
		perm := rng.Perm(cfg.Backends)
		b := make([]int, 0, size)
		for _, v := range perm[:size] {
			b = append(b, v+1)
		}
		start := t(0.10, 0.40)
		end := start + t(0.08, 0.25)
		if lim := sim.Time(0.70 * h); end > lim {
			end = lim
		}
		plan.Partitions = append(plan.Partitions, Partition{
			Start: start, End: end, A: []int{0}, B: b,
		})
	}

	// MR invalidations: on back-ends that stay up throughout.
	alive := make([]int, 0, cfg.Backends)
	for n := 1; n <= cfg.Backends; n++ {
		if !crashed[n] {
			alive = append(alive, n)
		}
	}
	for i := 0; i < cfg.MRInvalidations && len(alive) > 0; i++ {
		plan.MRInvalidations = append(plan.MRInvalidations, MRInvalidation{
			Node: alive[rng.Intn(len(alive))],
			At:   t(0.10, 0.50),
		})
	}

	// Front-end faults (HA clusters): distinct victims, one fault kind
	// per phase of the run — crash early, freeze mid-run, partition
	// late — so each primary handoff is observable in isolation and the
	// quiet tail still sees the last takeover settle.
	if len(cfg.FrontEnds) > 0 {
		order := rng.Perm(len(cfg.FrontEnds))
		next := 0
		take := func() (int, bool) {
			if next >= len(order) {
				return 0, false
			}
			id := cfg.FrontEnds[order[next]]
			next++
			return id, true
		}
		for i := 0; i < cfg.FECrashes; i++ {
			fe, ok := take()
			if !ok {
				break
			}
			at := t(0.10, 0.28)
			plan.Crashes = append(plan.Crashes, Crash{
				Node: fe, At: at, RestartAt: at + t(0.10, 0.18),
			})
		}
		for i := 0; i < cfg.FEFreezes; i++ {
			fe, ok := take()
			if !ok {
				break
			}
			at := t(0.36, 0.48)
			plan.Freezes = append(plan.Freezes, Freeze{
				Node: fe, At: at, Until: at + t(0.08, 0.14),
			})
		}
		// Partition the victim from the witness only: it keeps serving
		// clients and probing back-ends, but cannot renew — the pure
		// epoch-fencing scenario (a split brain if the fence leaks).
		for i := 0; i < cfg.FEPartitions; i++ {
			fe, ok := take()
			if !ok {
				break
			}
			start := t(0.56, 0.66)
			end := start + t(0.08, 0.14)
			if lim := sim.Time(0.80 * h); end > lim {
				end = lim
			}
			plan.Partitions = append(plan.Partitions, Partition{
				Start: start, End: end, A: []int{fe}, B: []int{cfg.Witness},
			})
		}
	}

	// Claim stalls (active-active clusters): drawn append-only, after
	// every pre-existing draw. Even indices freeze a front-end mid-hold
	// (long enough for its claims to orphan and be reclaimed); odd
	// indices partition one from the witness (its CAS rounds time out
	// and its validity lapses while it keeps serving clients). Victims
	// repeat freely — two stalls on one replica are a legitimate
	// scenario, unlike the distinct-victim front-end faults above.
	if cfg.ClaimStalls > 0 && len(cfg.FrontEnds) > 0 {
		for i := 0; i < cfg.ClaimStalls; i++ {
			fe := cfg.FrontEnds[rng.Intn(len(cfg.FrontEnds))]
			if i%2 == 0 {
				at := t(0.30, 0.42)
				plan.Freezes = append(plan.Freezes, Freeze{
					Node: fe, At: at, Until: at + t(0.10, 0.16),
				})
				continue
			}
			start := t(0.55, 0.68)
			end := start + t(0.08, 0.14)
			if lim := sim.Time(0.85 * h); end > lim {
				end = lim
			}
			plan.Partitions = append(plan.Partitions, Partition{
				Start: start, End: end, A: []int{fe}, B: []int{cfg.Witness},
			})
		}
	}
	return plan
}
