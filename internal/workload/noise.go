package workload

import (
	"math/rand"

	"rdmamon/internal/sim"
	"rdmamon/internal/simos"
)

// TenantNoiseConfig shapes the wandering co-tenant load: the paper's
// shared-enterprise-server premise is that *other applications* run on
// the same nodes, so a node's true capacity fluctuates in ways the web
// dispatcher cannot infer from its own request counts — only resource
// monitoring reveals it.
type TenantNoiseConfig struct {
	MeanGap sim.Time // mean time between bursts (exponential)
	MinHold sim.Time // burst duration range
	MaxHold sim.Time
	Threads int // CPU hogs per burst
	Seed    int64
}

// NoiseDefaults returns a moderately disruptive co-tenant.
func NoiseDefaults() TenantNoiseConfig {
	return TenantNoiseConfig{
		MeanGap: 500 * sim.Millisecond,
		MinHold: 400 * sim.Millisecond,
		MaxHold: 1600 * sim.Millisecond,
		Threads: 2,
	}
}

// TenantNoise injects CPU bursts on random nodes.
type TenantNoise struct {
	Cfg   TenantNoiseConfig
	nodes []*simos.Node
	rng   *rand.Rand
}

// StartTenantNoise launches the noise process over nodes. Each burst
// picks one node and runs Threads CPU hogs for the hold duration.
func StartTenantNoise(nodes []*simos.Node, cfg TenantNoiseConfig) *TenantNoise {
	d := NoiseDefaults()
	if cfg.MeanGap <= 0 {
		cfg.MeanGap = d.MeanGap
	}
	if cfg.MinHold <= 0 {
		cfg.MinHold = d.MinHold
	}
	if cfg.MaxHold < cfg.MinHold {
		cfg.MaxHold = cfg.MinHold
	}
	if cfg.Threads <= 0 {
		cfg.Threads = d.Threads
	}
	tn := &TenantNoise{Cfg: cfg, nodes: nodes, rng: rand.New(rand.NewSource(cfg.Seed))}
	tn.schedule()
	return tn
}

func (tn *TenantNoise) schedule() {
	if len(tn.nodes) == 0 {
		return
	}
	eng := tn.nodes[0].Eng
	gap := sim.Time(tn.rng.ExpFloat64() * float64(tn.Cfg.MeanGap))
	if gap < 50*sim.Millisecond {
		gap = 50 * sim.Millisecond
	}
	eng.After(gap, func() {
		node := tn.nodes[tn.rng.Intn(len(tn.nodes))]
		hold := tn.Cfg.MinHold +
			sim.Time(tn.rng.Int63n(int64(tn.Cfg.MaxHold-tn.Cfg.MinHold)+1))
		for i := 0; i < tn.Cfg.Threads; i++ {
			node.Spawn("tenant", func(tk *simos.Task) {
				tk.NoBoost = true
				tk.Compute(hold, func() {})
			})
		}
		tn.schedule()
	})
}
