package workload

import (
	"math/rand"

	"rdmamon/internal/httpsim"
	"rdmamon/internal/metrics"
	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
)

// FlashCrowdConfig shapes an open-loop burst generator: every
// (exponentially distributed) interval, a crowd of MinSize..MaxSize
// requests arrives within burstSpan. Auction sites see
// exactly this pattern around popular items closing; it is the regime
// where a dispatcher working from stale load information piles an
// entire burst onto whichever server *used to* look idle.
type FlashCrowdConfig struct {
	FrontEnd int
	ExtID    int // external endpoint for replies
	Every    sim.Time
	MinSize  int
	MaxSize  int
	Gen      Generator
	Seed     int64
}

// burstSpan is the window a crowd's requests arrive within.
const burstSpan = 20 * sim.Millisecond

// FlashCrowd injects synchronized request bursts and records their
// response times.
type FlashCrowd struct {
	Cfg FlashCrowdConfig

	All      metrics.Sample
	PerClass map[string]*metrics.Sample

	Issued uint64

	fab *simnet.Fabric
	rng *rand.Rand
}

// StartFlashCrowd launches the generator on fab.
func StartFlashCrowd(fab *simnet.Fabric, cfg FlashCrowdConfig) *FlashCrowd {
	if cfg.Every <= 0 {
		cfg.Every = 2 * sim.Second
	}
	if cfg.MinSize <= 0 {
		cfg.MinSize = 20
	}
	if cfg.MaxSize < cfg.MinSize {
		cfg.MaxSize = cfg.MinSize
	}
	fc := &FlashCrowd{
		Cfg:      cfg,
		fab:      fab,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		PerClass: make(map[string]*metrics.Sample),
	}
	fab.RegisterExternal(cfg.ExtID, fc.onReply)
	fc.scheduleBurst()
	return fc
}

func (fc *FlashCrowd) scheduleBurst() {
	wait := sim.Time(fc.rng.ExpFloat64() * float64(fc.Cfg.Every))
	if wait < 100*sim.Millisecond {
		wait = 100 * sim.Millisecond
	}
	fc.fab.Eng.After(wait, func() {
		n := fc.Cfg.MinSize + fc.rng.Intn(fc.Cfg.MaxSize-fc.Cfg.MinSize+1)
		for i := 0; i < n; i++ {
			off := sim.Time(fc.rng.Int63n(int64(burstSpan) + 1))
			fc.fab.Eng.After(off, fc.injectOne)
		}
		fc.scheduleBurst()
	})
}

func (fc *FlashCrowd) injectOne() {
	fc.Issued++
	req := fc.Cfg.Gen(fc.rng, fc.Issued, fc.Cfg.ExtID, fc.fab.Eng.Now())
	fc.fab.Inject(fc.Cfg.ExtID, fc.Cfg.FrontEnd, httpsim.DispatchPort, req.Size, req)
}

func (fc *FlashCrowd) onReply(m simos.Message) {
	rep, ok := m.Payload.(httpsim.Reply)
	if !ok || rep.Rejected {
		return
	}
	rt := float64(fc.fab.Eng.Now()-rep.Issued) / float64(sim.Millisecond)
	fc.All.Add(rt)
	cs := fc.PerClass[rep.Class]
	if cs == nil {
		cs = &metrics.Sample{}
		fc.PerClass[rep.Class] = cs
	}
	cs.Add(rt)
}

// ResetStats clears accumulated samples (e.g. after warm-up).
func (fc *FlashCrowd) ResetStats() {
	fc.All = metrics.Sample{}
	fc.PerClass = make(map[string]*metrics.Sample)
	fc.Issued = 0
}
