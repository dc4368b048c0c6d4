package core

import (
	"testing"

	"rdmamon/internal/sim"
	"rdmamon/internal/simos"
)

func TestWeightsForSchemes(t *testing.T) {
	for _, s := range Schemes() {
		w := WeightsFor(s)
		if w.CPU <= 0 || w.Conn <= 0 {
			t.Fatalf("%v weights look unset: %+v", s, w)
		}
		if s == ERDMASync {
			if w.IRQ <= 0 {
				t.Fatal("e-RDMA-Sync must use the IRQ component")
			}
		} else if w.IRQ != 0 {
			t.Fatalf("%v must not use the IRQ component", s)
		}
	}
}

func TestRecordCarriesUtilAndIRQ(t *testing.T) {
	s := simos.Snapshot{NodeID: 2, NumCPU: 2}
	s.UtilPerMille[0] = 700
	s.UtilPerMille[1] = 300
	s.IrqPendingHard[1] = 4
	s.CumIRQ[0] = 10
	s.CumIRQ[1] = 20
	r := RecordFromSnapshot(s, 1)
	if r.UtilMean() != 500 {
		t.Fatalf("util mean = %d", r.UtilMean())
	}
	if r.PendingIRQTotal() != 4 {
		t.Fatalf("pending = %d", r.PendingIRQTotal())
	}
	if r.CumIRQ != 30 {
		t.Fatalf("cum irq = %d", r.CumIRQ)
	}
}

func TestProbeLatencyIncludesDecode(t *testing.T) {
	r := newRig(32)
	a := r.agent(RDMASync)
	p := StartMonitor(r.front, r.fnic, []*Agent{a}, 10*sim.Millisecond).Probers[r.backend.ID]
	r.eng.RunUntil(200 * sim.Millisecond)
	if p.Latency.Min() < 15 {
		t.Fatalf("min latency %vus implausibly small", p.Latency.Min())
	}
}

func TestAgentSchemesExposeRKeyOnlyForRDMA(t *testing.T) {
	for _, s := range Schemes() {
		r := newRig(33 + int64(s))
		a := r.agent(s)
		if s.UsesRDMA() && a.RKey() == 0 {
			t.Fatalf("%v should expose an rkey", s)
		}
		if !s.UsesRDMA() && a.RKey() != 0 {
			t.Fatalf("%v should not expose an rkey", s)
		}
	}
}
