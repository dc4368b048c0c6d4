package core

import (
	"testing"

	"rdmamon/internal/metrics"
	"rdmamon/internal/sim"
	"rdmamon/internal/simos"
	"rdmamon/internal/wire"
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
	p.Latency = &metrics.Sample{}
	r.eng.RunUntil(200 * sim.Millisecond)
	if min := p.Latency.Percentile(0); min < 15 {
		t.Fatalf("min latency %vus implausibly small", min)
	}
}

// TestProberLatencyOptIn: a prober records probe latency only into a
// sink a caller installed. Without one, finishProbe records nothing and
// allocates nothing; with one, every completed or failed probe adds
// exactly one sample.
func TestProberLatencyOptIn(t *testing.T) {
	f := newFleet(33, 4, AgentConfig{Scheme: RDMASync})
	m := StartMonitorCfg(f.front, f.fnic, f.agents, 10*sim.Millisecond, MonitorConfig{Shards: 2, Batch: 2})
	records := make(map[int]int)
	for b, p := range m.Probers {
		p.OnRecord = func(wire.LoadRecord, sim.Time) { records[b]++ }
		if b <= 2 {
			p.Latency = &metrics.Sample{}
		}
	}
	f.eng.RunUntil(100 * sim.Millisecond)
	f.agents[1].Stop() // back-end 2's probes fail from here on
	f.eng.RunUntil(300 * sim.Millisecond)
	if m.Probers[2].Errors == 0 {
		t.Fatal("probes of a stopped agent should fail")
	}
	for b, p := range m.Probers {
		if b > 2 {
			if p.Latency != nil {
				t.Fatalf("back-end %d: a default prober grew a latency sink", b)
			}
			continue
		}
		if want := records[b] + p.Errors; p.Latency.Count() != want || want < 20 {
			t.Fatalf("back-end %d: %d latency samples for %d records and %d failed probes",
				b, p.Latency.Count(), records[b], p.Errors)
		}
	}

	p := m.Probers[3]
	p.OnRecord = nil
	rec, _, _ := p.Latest()
	last, start := *rec, f.eng.Now()
	then := func(*wire.LoadRecord, error) {}
	allocs := testing.AllocsPerRun(100, func() {
		p.finishProbe(start, &last, nil, TransportRDMA, then)
		p.finishProbe(start, nil, ErrProbeTimeout, TransportRDMA, then)
	})
	if allocs != 0 || p.Latency != nil {
		t.Fatalf("a default prober's finishProbe allocated %.1f objects and left sink %v; want 0 and nil", allocs, p.Latency)
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
