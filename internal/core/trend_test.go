package core

import (
	"testing"

	"rdmamon/internal/metrics"
	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

// trendRec builds a record whose weighted index is driven by NrRunning
// at kernel time kt.
func trendRec(kt sim.Time, run int) wire.LoadRecord {
	return wire.LoadRecord{
		NumCPU: 2, MemTotalKB: 1 << 20,
		NrRunning: clampU16(run), KTimeNS: int64(kt),
	}
}

func trendView(epoch uint32, recs ...wire.LoadRecord) *wire.RingView {
	v := &wire.RingView{Epoch: epoch, K: len(recs), Count: len(recs)}
	// Newest-first, like DecodeRingInto produces.
	for i, r := range recs {
		v.Records[len(recs)-1-i] = r
	}
	return v
}

func TestTrendTrackerSlopeSign(t *testing.T) {
	var up, down TrendTracker
	for i := 0; i < 8; i++ {
		u, d := trendRec(sim.Time(i)*100*sim.Millisecond, i), trendRec(sim.Time(i)*100*sim.Millisecond, 8-i)
		up.ObserveRecord(&u)
		down.ObserveRecord(&d)
	}
	s, ok := up.Slope()
	if !ok || s <= 0 {
		t.Fatalf("ramping-up slope = %v (primed=%v), want > 0", s, ok)
	}
	s, ok = down.Slope()
	if !ok || s >= 0 {
		t.Fatalf("ramping-down slope = %v (primed=%v), want < 0", s, ok)
	}
}

func TestTrendTrackerNotPrimedBySingleSample(t *testing.T) {
	var tt TrendTracker
	if _, ok := tt.Slope(); ok {
		t.Fatal("empty tracker claims a slope")
	}
	r := trendRec(sim.Second, 3)
	tt.ObserveRecord(&r)
	if _, ok := tt.Slope(); ok {
		t.Fatal("one sample cannot define a slope")
	}
	if tt.LastRate() != 0 {
		t.Fatal("one sample cannot define a rate")
	}
}

func TestTrendTrackerRingFoldIsIdempotent(t *testing.T) {
	var tt TrendTracker
	v := trendView(0,
		trendRec(100*sim.Millisecond, 1),
		trendRec(200*sim.Millisecond, 2),
		trendRec(300*sim.Millisecond, 3),
	)
	if n := tt.ObserveRing(v); n != 3 {
		t.Fatalf("first fold saw %d new samples, want 3", n)
	}
	slope, _ := tt.Slope()
	rate := tt.LastRate()
	if rate <= 0 {
		t.Fatal("ramping ring left LastRate at 0")
	}
	// Re-folding the same window (overlapping ring reads) changes
	// nothing — including the change-rate, which keeps its freshest
	// estimate instead of zeroing.
	if n := tt.ObserveRing(v); n != 0 {
		t.Fatalf("second fold saw %d new samples, want 0", n)
	}
	if s, _ := tt.Slope(); s != slope || tt.LastRate() != rate {
		t.Fatal("re-folding an already-seen window moved the trend")
	}
	// Same for the point-probe path folding the newest ring sample.
	tt.ObserveRecord(&v.Records[0])
	if s, _ := tt.Slope(); s != slope || tt.LastRate() != rate {
		t.Fatal("point re-fold of the newest sample moved the trend")
	}
}

func TestTrendTrackerEpochResets(t *testing.T) {
	var tt TrendTracker
	tt.ObserveRing(trendView(0,
		trendRec(100*sim.Millisecond, 2),
		trendRec(200*sim.Millisecond, 9),
	))
	if s, ok := tt.Slope(); !ok || s <= 0 {
		t.Fatalf("setup slope = %v", s)
	}
	// A new epoch (agent restart / MR re-pin) must drop the old trend:
	// the first cross-epoch view re-primes from scratch.
	tt.ObserveRing(trendView(1, trendRec(50*sim.Millisecond, 1)))
	if _, ok := tt.Slope(); ok {
		t.Fatal("slope survived an epoch change")
	}
}

func TestTrendTrackerZeroAlloc(t *testing.T) {
	var tt TrendTracker
	v := trendView(0,
		trendRec(100*sim.Millisecond, 1),
		trendRec(200*sim.Millisecond, 2),
	)
	allocs := testing.AllocsPerRun(100, func() {
		tt.ObserveRing(v)
		tt.ObserveRecord(&v.Records[0])
		_ = tt.LastRate()
	})
	if allocs != 0 {
		t.Fatalf("trend fold allocates %.1f objects/op, want 0", allocs)
	}
}

// --- ring agent + prober end to end ------------------------------------

func TestHistoryRingProbeEndToEnd(t *testing.T) {
	r := newRig(11)
	a := StartAgent(r.backend, r.bnic, AgentConfig{
		Scheme: ERDMASync, HistoryK: 8, Interval: 10 * sim.Millisecond,
	})
	if a.RingK() != 8 {
		t.Fatalf("RingK = %d, want 8", a.RingK())
	}
	if a.BackendTasks() != 0 {
		t.Fatal("the ring sampler must be a kernel timer, not a task")
	}
	p := StartMonitor(r.front, r.fnic, []*Agent{a}, 50*sim.Millisecond).Probers[r.backend.ID]
	p.Latency = &metrics.Sample{}
	var maxStale sim.Time
	p.OnRecord = func(rec wire.LoadRecord, at sim.Time) {
		if st := at - sim.Time(rec.KTimeNS); st > maxStale {
			maxStale = st
		}
	}
	r.eng.RunUntil(sim.Second)
	if p.Errors != 0 {
		t.Fatalf("probe errors: %d", p.Errors)
	}
	reads := uint64(p.Latency.Count())
	if reads < 15 {
		t.Fatalf("only %d probes in 1s at 50ms", reads)
	}
	// The amortization claim: each read covers the whole 50ms window at
	// 10ms sample granularity, so the monitor observes several times
	// more samples than it posted work requests.
	if p.RingSamples < 4*reads {
		t.Fatalf("RingSamples = %d for %d reads; ring reads are not amortizing",
			p.RingSamples, reads)
	}
	// DMA-instant push: the newest slot is sampled as the read lands,
	// so the sync family's freshness contract survives the ring.
	if maxStale > 100*sim.Microsecond {
		t.Fatalf("newest ring sample %v stale, want < one RTT", maxStale)
	}
	if _, ok := p.Trend.Slope(); !ok {
		t.Fatal("a second of ring reads left the trend unprimed")
	}
}

func TestHistoryRingRepinBumpsEpoch(t *testing.T) {
	r := newRig(12)
	a := StartAgent(r.backend, r.bnic, AgentConfig{
		Scheme: RDMASync, HistoryK: 4, Interval: 10 * sim.Millisecond,
	})
	p := StartMonitor(r.front, r.fnic, []*Agent{a}, 20*sim.Millisecond).Probers[r.backend.ID]
	r.eng.RunUntil(300 * sim.Millisecond)
	epoch0 := p.view.Epoch
	a.InvalidateMR(50 * sim.Millisecond)
	r.eng.RunUntil(sim.Second)
	if p.view.Epoch != epoch0+1 {
		t.Fatalf("ring epoch after re-pin = %d, want %d", p.view.Epoch, epoch0+1)
	}
	if p.updates == 0 {
		t.Fatal("prober never recovered after re-pin")
	}
}

func TestAgentRingPushZeroAlloc(t *testing.T) {
	r := newRig(13)
	a := StartAgent(r.backend, r.bnic, AgentConfig{
		Scheme: ERDMASync, HistoryK: 8, Interval: 10 * sim.Millisecond,
	})
	allocs := testing.AllocsPerRun(200, a.ringPush)
	if allocs != 0 {
		t.Fatalf("ring push allocates %.1f objects/op, want 0", allocs)
	}
}
