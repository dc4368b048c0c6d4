package core

import (
	"testing"
	"unsafe"

	"rdmamon/internal/sim"
)

// At 8192 back-ends the Prober is the sweep's working set: it has to
// stay in the 384-byte size class, which means cold, mode-specific
// state (the 3.9 KB ring view, the opt-in latency sample) lives behind
// a pointer and reads land in the shard's buffers.
func TestProberFitsSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Prober{}); sz > 384 {
		t.Fatalf("Prober is %d bytes, want <= 384", sz)
	}
}

// Every back-end has an Agent: it keeps no per-read memory (the DMA
// source stages on the stack and in the fabric's buffer), so it stays
// in the 176-byte size class.
func TestAgentFitsSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Agent{}); sz > 176 {
		t.Fatalf("Agent is %d bytes, want <= 176", sz)
	}
}

// Under the hybrid engine every back-end also owns one AdaptivePoll,
// allocated alone: it keeps the last record's index, not the record, so
// it stays in the 48-byte size class.
func TestAdaptivePollFitsSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(AdaptivePoll{}); sz > 48 {
		t.Fatalf("AdaptivePoll is %d bytes, want <= 48", sz)
	}
}

// Under the hybrid engine every back-end runs a DeltaPusher: it keeps
// its check period, not the whole HybridConfig, and its gate scores
// with DefaultWeights, so it stays in the 320-byte size class.
func TestDeltaPusherFitsSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(DeltaPusher{}); sz > 320 {
		t.Fatalf("DeltaPusher is %d bytes, want <= 320", sz)
	}
}

// The ring view exists only for a back-end whose agent exports a
// history ring, and then it is allocated once.
func TestProberRingViewLazy(t *testing.T) {
	r := newRig(14)
	p := StartMonitor(r.front, r.fnic, []*Agent{r.agent(RDMASync)}, 10*sim.Millisecond).Probers[r.backend.ID]
	r.eng.RunUntil(sim.Second)
	if p.updates == 0 || p.Errors != 0 {
		t.Fatalf("point prober: updates=%d errors=%d", p.updates, p.Errors)
	}
	if p.view != nil {
		t.Fatal("a prober whose agent exports no ring allocated a ring view")
	}

	r = newRig(15)
	a := StartAgent(r.backend, r.bnic, AgentConfig{Scheme: RDMASync, HistoryK: 4, Interval: 10 * sim.Millisecond})
	p = StartMonitor(r.front, r.fnic, []*Agent{a}, 10*sim.Millisecond).Probers[r.backend.ID]
	if p.view != nil {
		t.Fatal("ring view allocated before the first ring decode")
	}
	r.eng.RunUntil(100 * sim.Millisecond)
	first := p.view
	if first == nil {
		t.Fatal("ring reads left no view")
	}
	r.eng.RunUntil(sim.Second)
	if p.view != first {
		t.Fatal("the ring view was reallocated")
	}
	if p.RingSamples == 0 {
		t.Fatal("no ring samples folded")
	}
}
