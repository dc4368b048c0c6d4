package core

import (
	"testing"
	"unsafe"

	"rdmamon/internal/sim"
)

// At 8192 back-ends the Prober is the sweep's working set: it has to
// stay in the 576-byte size class, which means cold, mode-specific
// state (the 3.9 KB ring view) lives behind a pointer.
func TestProberFitsSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Prober{}); sz > 576 {
		t.Fatalf("Prober is %d bytes, want <= 576", sz)
	}
}

// The ring view exists only for a back-end whose agent exports a
// history ring, and then it is allocated once.
func TestProberRingViewLazy(t *testing.T) {
	r := newRig(14)
	p := StartProber(r.front, r.fnic, r.agent(RDMASync), 10*sim.Millisecond)
	r.eng.RunUntil(sim.Second)
	if !p.has || p.Errors != 0 {
		t.Fatalf("point prober: has=%v errors=%d", p.has, p.Errors)
	}
	if p.view != nil {
		t.Fatal("a prober whose agent exports no ring allocated a ring view")
	}

	r = newRig(15)
	a := StartAgent(r.backend, r.bnic, AgentConfig{Scheme: RDMASync, HistoryK: 4, Interval: 10 * sim.Millisecond})
	p = StartProber(r.front, r.fnic, a, 10*sim.Millisecond)
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
