package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
	"rdmamon/internal/wire"
)

// startBusy spins CPU-bound compute loops on a node, so its load index
// visibly moves.
func startBusy(n *simos.Node, threads int, batch sim.Time) {
	for i := 0; i < threads; i++ {
		n.Spawn(fmt.Sprintf("busy-%d", i), func(tk *simos.Task) {
			var loop func()
			loop = func() { tk.Compute(batch, loop) }
			loop()
		})
	}
}

// healthFrom maps an arbitrary byte onto a health state, for property
// inputs.
// probePeriod is a back-end's current adaptive poll period.
func probePeriod(m *Monitor, backend int) sim.Time { return m.hybrid(backend).Ctrl.Period() }

func healthFrom(b uint8) Health {
	return Health(int(b) % 5)
}

// TestPeriodControllerBounds: whatever observation sequence the
// controller sees, the period stays within [Min, Max].
func TestPeriodControllerBounds(t *testing.T) {
	cfg := PeriodConfig{Min: 10 * sim.Millisecond, Max: 160 * sim.Millisecond}
	f := func(changes []bool, healths []uint8, leases []bool) bool {
		pc := &PeriodController{Cfg: cfg}
		if pc.Period() != cfg.Min {
			return false
		}
		n := len(changes)
		if len(healths) < n {
			n = len(healths)
		}
		if len(leases) < n {
			n = len(leases)
		}
		for i := 0; i < n; i++ {
			p := pc.Observe(changes[i], healthFrom(healths[i]), leases[i])
			if p < cfg.Min || p > cfg.Max || p != pc.Period() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPeriodControllerMonotoneInChangeRate: a controller that observes
// every change another one does, plus possibly more, never polls
// slower than it — pointwise, at every step.
func TestPeriodControllerMonotoneInChangeRate(t *testing.T) {
	cfg := PeriodConfig{Min: 10 * sim.Millisecond, Max: 320 * sim.Millisecond}
	f := func(base []bool, extra []bool) bool {
		quiet := &PeriodController{Cfg: cfg}
		busy := &PeriodController{Cfg: cfg}
		n := len(base)
		if len(extra) < n {
			n = len(extra)
		}
		for i := 0; i < n; i++ {
			pq := quiet.Observe(base[i], Healthy, true)
			pb := busy.Observe(base[i] || extra[i], Healthy, true)
			if pb > pq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPeriodControllerSnapsOnTrouble: from any warmed-up state, a
// single observation carrying a trouble signal — non-Healthy state or
// a lost lease — forces the fast period immediately.
func TestPeriodControllerSnapsOnTrouble(t *testing.T) {
	cfg := PeriodConfig{Min: 10 * sim.Millisecond, Max: 160 * sim.Millisecond}
	f := func(warmup []bool, kind uint8) bool {
		pc := &PeriodController{Cfg: cfg}
		for _, ch := range warmup {
			pc.Observe(ch, Healthy, true)
		}
		var p sim.Time
		switch kind % 3 {
		case 0:
			p = pc.Observe(false, Suspect, true)
		case 1:
			p = pc.Observe(false, Degraded, true)
		default:
			p = pc.Observe(false, Healthy, false) // lease lost
		}
		return p == cfg.Min
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPeriodControllerDecaySchedule pins the deterministic decay path:
// quiet Healthy leased observations double the period up to Max, and
// one change snaps it back.
func TestPeriodControllerDecaySchedule(t *testing.T) {
	cfg := PeriodConfig{Min: 10 * sim.Millisecond, Max: 80 * sim.Millisecond}
	pc := &PeriodController{Cfg: cfg}
	want := []sim.Time{20, 40, 80, 80, 80}
	for i, w := range want {
		if got := pc.Observe(false, Healthy, true); got != w*sim.Millisecond {
			t.Fatalf("step %d: period = %v, want %v", i, got, w*sim.Millisecond)
		}
	}
	if got := pc.Observe(true, Healthy, true); got != cfg.Min {
		t.Fatalf("after change: period = %v, want %v", got, cfg.Min)
	}
}

// TestAdaptivePollDecisions walks the one adaptive-poll decision through
// each case the simulated monitor's probe and push paths, the live
// monitor and rmmon's probe loop hand it, from a primed state (one quiet
// record observed, period at Min): the period it returns and the
// observation it keeps.
func TestAdaptivePollDecisions(t *testing.T) {
	const min = 10 * sim.Millisecond
	quiet := wire.LoadRecord{NumCPU: 2, Conns: 4, MemUsedKB: 1 << 18, MemTotalKB: 1 << 20}
	quiet.UtilPerMille[0] = 300
	small := quiet // one more connection: 0.4/24 of index, under the threshold
	small.Seq, small.Conns = 9, 5
	busy := quiet
	busy.UtilPerMille[0], busy.UtilPerMille[1] = 1000, 1000
	at := quiet // exactly one threshold away, as scored
	at.Conns = 7
	th := DefaultChangeThreshold
	cases := []struct {
		name     string
		unprimed bool
		rec      *wire.LoadRecord
		rate     float64 // ring-rate verdict; negative takes the point delta
		th       float64
		h        Health
		lease    bool
		want     sim.Time
		wantObs  wire.LoadRecord
	}{
		{"first observation", true, &small, -1, th, Healthy, true, min, small},
		{"failed probe", false, nil, -1, th, Healthy, true, min, quiet},
		{"failed ring probe", false, nil, 0, th, Healthy, true, min, quiet},
		{"delta at threshold", false, &at, -1, LoadDelta(&at, &quiet), Healthy, true, min, at},
		{"delta above threshold", false, &busy, -1, th, Healthy, true, min, busy},
		{"quiet Healthy leased decays", false, &small, -1, th, Healthy, true, 2 * min, small},
		{"Suspect", false, &small, -1, th, Suspect, true, min, small},
		{"Degraded", false, &small, -1, th, Degraded, true, min, small},
		{"Quarantined", false, &small, -1, th, Quarantined, true, min, small},
		{"lost lease", false, &small, -1, th, Healthy, false, min, small},
		{"ring rate at threshold", false, &small, th, th, Healthy, true, min, small},
		{"ring rate quiet, point delta large", false, &busy, th / 2, th, Healthy, true, 2 * min, busy},
		{"heartbeat push", false, &quiet, -1, th, Healthy, true, 2 * min, quiet},
		{"moving push", false, &busy, -1, th, Healthy, true, min, busy},
	}
	w := DefaultWeights()
	for _, c := range cases {
		a := AdaptivePoll{Ctrl: PeriodController{Cfg: PeriodConfig{Min: min, Max: 8 * min}}}
		if !c.unprimed {
			a.Observe(&quiet, th, Healthy, true)
		}
		var got sim.Time
		if c.rate < 0 {
			got = a.Observe(c.rec, c.th, c.h, c.lease)
		} else {
			got = a.ObserveRate(c.rec, c.rate, c.th, c.h, c.lease)
		}
		if got != c.want || a.Ctrl.Period() != c.want {
			t.Errorf("%s: period %v (Period %v), want %v", c.name, got, a.Ctrl.Period(), c.want)
		}
		if want := w.IndexOf(&c.wantObs); !a.has || a.obsIdx != want {
			t.Errorf("%s: kept index %v has=%v, want %v (seq=%d conns=%d)",
				c.name, a.obsIdx, a.has, want, c.wantObs.Seq, c.wantObs.Conns)
		}
	}
	var fresh AdaptivePoll
	fresh.Ctrl.Cfg.Min = min
	if got := fresh.Observe(nil, th, Healthy, true); got != min || fresh.has {
		t.Errorf("failure before any record: period %v has=%v, want %v and nothing kept", got, fresh.has, min)
	}
}

func TestHybridConfigDefaults(t *testing.T) {
	h := HybridConfig{}.WithDefaults(10 * sim.Millisecond)
	if h.Period.Min != 10*sim.Millisecond || h.Period.Max != 160*sim.Millisecond {
		t.Fatalf("period = %+v", h.Period)
	}
	if h.Heartbeat != h.Period.Max || h.Check != h.Period.Min {
		t.Fatalf("heartbeat/check = %v/%v", h.Heartbeat, h.Check)
	}
}

// TestPeriodConfigWithDefaultsKeepsSetMax: WithDefaults fills Max only
// when it is unset. A set ceiling, even one below Min, comes back as
// given instead of turning into the 16×Min default, and the controller
// then holds the period at Min.
func TestPeriodConfigWithDefaultsKeepsSetMax(t *testing.T) {
	poll := 50 * sim.Millisecond
	for _, max := range []sim.Time{10 * sim.Millisecond, poll, 400 * sim.Millisecond} {
		cfg := PeriodConfig{Min: poll, Max: max}.WithDefaults(poll)
		if cfg.Min != poll || cfg.Max != max {
			t.Fatalf("Max %v: WithDefaults gave %+v", max, cfg)
		}
	}
	for _, unset := range []sim.Time{0, -1} {
		if cfg := (PeriodConfig{Max: unset}).WithDefaults(poll); cfg.Max != 16*poll {
			t.Fatalf("Max %v: WithDefaults gave %+v, want the 16×Min default", unset, cfg)
		}
	}
	pc := &PeriodController{Cfg: PeriodConfig{Min: poll, Max: 10 * sim.Millisecond}.WithDefaults(poll)}
	for i := 0; i < 5; i++ {
		if p := pc.Observe(false, Healthy, true); p != poll {
			t.Fatalf("inverted range: quiet observation %d gave period %v, want Min %v", i, p, poll)
		}
	}
}

func TestLoadDeltaSymmetricZero(t *testing.T) {
	a := wire.LoadRecord{NumCPU: 2, NrRunning: 4, Conns: 10, MemUsedKB: 1 << 18, MemTotalKB: 1 << 20}
	a.UtilPerMille[0] = 700
	b := a
	b.Seq = 99
	b.KTimeNS = 5e9
	if LoadDelta(&a, &b) != 0 {
		t.Fatal("seq/ktime must not move the delta")
	}
	b.UtilPerMille[0] = 100
	b.UtilPerMille[1] = 100
	if d1, d2 := LoadDelta(&a, &b), LoadDelta(&b, &a); d1 != d2 || d1 <= 0 {
		t.Fatalf("delta not symmetric positive: %v vs %v", d1, d2)
	}
}

// hybridCfg is the hybrid tuning the monitor tests share: fast sweep
// 10ms, ceiling 160ms.
func hybridCfg() *HybridConfig {
	return &HybridConfig{
		Period:    PeriodConfig{Min: 10 * sim.Millisecond, Max: 160 * sim.Millisecond},
		Heartbeat: 320 * sim.Millisecond,
		Check:     10 * sim.Millisecond,
	}
}

// TestHybridMonitorDecaysQuietBackend: an idle back-end's poll period
// decays to the ceiling and probe reads drop well below the all-pull
// budget, while the cached record stays available.
func TestHybridMonitorDecaysQuietBackend(t *testing.T) {
	r := newRig(31)
	a := r.agent(RDMASync)
	m := StartMonitorCfg(r.front, r.fnic, []*Agent{a}, 10*sim.Millisecond,
		MonitorConfig{Hybrid: hybridCfg()})
	r.eng.RunUntil(2 * sim.Second)
	if probePeriod(m, 1) != 160*sim.Millisecond {
		t.Fatalf("period = %v, want decayed to 160ms", probePeriod(m, 1))
	}
	if m.Decayed == 0 {
		t.Fatal("no probe slots were skipped")
	}
	// All-pull would issue ~200 reads in 2s at 10ms; the decayed
	// schedule issues ~2s/160ms plus the decay transient.
	if reads := r.fnic.RDMAReads; reads >= 60 || reads < 5 {
		t.Fatalf("probe reads = %d, want a small fraction of 200", reads)
	}
	if _, _, ok := m.Latest(1); !ok {
		t.Fatal("no cached record")
	}
}

// TestHybridPushRefreshesCacheAndSnapsPeriod: a quiet back-end decays;
// when its load moves, the delta pusher lands a record (without
// waiting for the decayed poll) and the poll period snaps back to the
// fast sweep.
func TestHybridPushRefreshesCacheAndSnapsPeriod(t *testing.T) {
	r := newRig(32)
	a := r.agent(RDMASync)
	h := hybridCfg()
	m := StartMonitorCfg(r.front, r.fnic, []*Agent{a}, 10*sim.Millisecond,
		MonitorConfig{Hybrid: h})
	p := StartDeltaPusher(r.backend, r.bnic, 0, func() uint32 { return m.Sink.SlotKey(1) }, *h)

	r.eng.RunUntil(1500 * sim.Millisecond)
	if probePeriod(m, 1) != h.Period.Max {
		t.Fatalf("pre-change period = %v, want %v", probePeriod(m, 1), h.Period.Max)
	}
	preReceived := m.Sink.Received

	var sawPush bool
	mp := m.Probers[1]
	mp.OnRecord = func(rec wire.LoadRecord, at sim.Time) {
		if mp.LastTransport == TransportPush {
			sawPush = true
		}
	}
	startBusy(r.backend, 6, 5*sim.Millisecond)
	// The period snaps to Min when the delta push lands, then may decay
	// again once the (now high) load stabilises — sample the minimum.
	minPeriod := probePeriod(m, 1)
	for i := 0; i < 12; i++ {
		r.eng.RunFor(5 * sim.Millisecond)
		if p := probePeriod(m, 1); p < minPeriod {
			minPeriod = p
		}
	}

	if m.Sink.Received <= preReceived {
		t.Fatalf("no delta push landed after load change (rx %d -> %d)",
			preReceived, m.Sink.Received)
	}
	if !sawPush {
		t.Fatal("cache was never refreshed via the push transport")
	}
	if minPeriod != h.Period.Min {
		t.Fatalf("post-change period bottomed at %v, want snapped to %v", minPeriod, h.Period.Min)
	}
	if m.Sink.Torn != 0 {
		t.Fatalf("torn pushes: %d", m.Sink.Torn)
	}
	if p.Errors != 0 {
		t.Fatalf("push errors: %d", p.Errors)
	}
	rec, _, ok := m.Latest(1)
	if !ok || rec.NrRunning == 0 {
		t.Fatalf("cached record missed the load change: %+v ok=%v", rec, ok)
	}
}

// TestHybridHeartbeatDoesNotSnapPeriod: heartbeat pushes (quiet, just
// proving freshness) refresh the cache but let the period keep
// decaying — only real index movement snaps it.
func TestHybridHeartbeatDoesNotSnapPeriod(t *testing.T) {
	r := newRig(33)
	a := r.agent(RDMASync)
	h := hybridCfg()
	h.Heartbeat = 100 * sim.Millisecond
	m := StartMonitorCfg(r.front, r.fnic, []*Agent{a}, 10*sim.Millisecond,
		MonitorConfig{Hybrid: h})
	StartDeltaPusher(r.backend, r.bnic, 0, func() uint32 { return m.Sink.SlotKey(1) }, *h)
	r.eng.RunUntil(2 * sim.Second)
	if m.Sink.Received < 10 {
		t.Fatalf("heartbeat pushes = %d, want ~20", m.Sink.Received)
	}
	if probePeriod(m, 1) != h.Period.Max {
		t.Fatalf("period = %v, want decayed to %v despite heartbeats",
			probePeriod(m, 1), h.Period.Max)
	}
	// The cache must be heartbeat-fresh, far newer than the decayed
	// poll alone would keep it.
	_, at, ok := m.Latest(1)
	if !ok || r.eng.Now()-at > h.Heartbeat+20*sim.Millisecond {
		t.Fatalf("cache age %v exceeds heartbeat bound", r.eng.Now()-at)
	}
}

// TestHybridCrashDetectionKeepsFastSweep: probe failures count as
// change, so a dead back-end is re-probed at the fast period and the
// health machine condemns it as quickly as under all-pull.
func TestHybridCrashDetectionKeepsFastSweep(t *testing.T) {
	r := newRig(34)
	a := r.agent(RDMASync)
	m := StartMonitorCfg(r.front, r.fnic, []*Agent{a}, 10*sim.Millisecond,
		MonitorConfig{Hybrid: hybridCfg()})
	m.SetProbeTimeout(10 * sim.Millisecond)
	r.eng.RunUntil(1500 * sim.Millisecond) // decay to the ceiling
	if probePeriod(m, 1) != 160*sim.Millisecond {
		t.Fatalf("period = %v, want decayed", probePeriod(m, 1))
	}
	r.backend.Crash()
	a.Stop()
	r.eng.RunFor(400 * sim.Millisecond)
	if got := m.Health(1); got != Quarantined {
		t.Fatalf("health = %v, want quarantined", got)
	}
	if probePeriod(m, 1) != 10*sim.Millisecond {
		t.Fatalf("period = %v, want snapped to fast sweep", probePeriod(m, 1))
	}
}

// TestHybridSlotInvalidationRepins: invalidating the aggregation slot
// fails in-flight pushes; after the repin delay a fresh key appears
// and pushes resume, exactly like the pull path's MR invalidation.
func TestHybridSlotInvalidationRepins(t *testing.T) {
	r := newRig(35)
	a := r.agent(RDMASync)
	h := hybridCfg()
	h.Heartbeat = 40 * sim.Millisecond // frequent pushes, quickly exercised
	m := StartMonitorCfg(r.front, r.fnic, []*Agent{a}, 10*sim.Millisecond,
		MonitorConfig{Hybrid: h})
	p := StartDeltaPusher(r.backend, r.bnic, 0, func() uint32 { return m.Sink.SlotKey(1) }, *h)
	r.eng.RunUntil(500 * sim.Millisecond)
	if m.Sink.SlotKey(1) == 0 {
		t.Fatal("no slot key")
	}
	m.Sink.InvalidateSlot(1, 100*sim.Millisecond)
	if m.Sink.SlotKey(1) != 0 {
		t.Fatal("slot key survived invalidation")
	}
	r.eng.RunFor(50 * sim.Millisecond)
	errsMid := p.Errors
	if errsMid == 0 {
		t.Fatal("pushes kept succeeding against an invalidated slot")
	}
	pre := m.Sink.Received
	r.eng.RunFor(300 * sim.Millisecond)
	if m.Sink.SlotKey(1) == 0 {
		t.Fatal("slot never re-pinned")
	}
	if m.Sink.Received <= pre {
		t.Fatal("pushes never resumed after re-pin")
	}
}

// TestHybridStalePushDropped: replayed or out-of-order push records
// must never move the cache backwards.
func TestHybridStalePushDropped(t *testing.T) {
	r := newRig(36)
	a := r.agent(RDMASync)
	h := hybridCfg()
	m := StartMonitorCfg(r.front, r.fnic, []*Agent{a}, 10*sim.Millisecond,
		MonitorConfig{Hybrid: h})
	r.eng.RunUntil(100 * sim.Millisecond)

	fresh := wire.PushRecord{PushSeq: 10, PushedNS: int64(r.eng.Now()),
		Load: RecordFromSnapshot(r.backend.K.Snapshot(), 50)}
	m.Sink.OnRecord(1, fresh, r.eng.Now())
	rec, _, _ := m.Latest(1)
	if rec.Seq != 50 {
		t.Fatalf("fresh push not applied: seq=%d", rec.Seq)
	}
	stale := fresh
	stale.PushSeq = 9
	stale.Load.Seq = 40
	m.Sink.OnRecord(1, stale, r.eng.Now())
	rec, _, _ = m.Latest(1)
	if rec.Seq != 50 {
		t.Fatalf("stale push replaced the cache: seq=%d", rec.Seq)
	}
	if m.StalePushes == 0 {
		t.Fatal("stale push not counted")
	}
}

// TestPushMonitorLatestRace is the regression test for the Latest/rx
// data race: concurrent readers hammer the cache while the engine
// delivers multicast records on the test goroutine. Run with -race.
func TestPushMonitorLatestRace(t *testing.T) {
	r := newRig(37)
	mon := StartPushMonitor(r.fab, r.front, PushGroup)
	StartPushAgent(r.backend, r.bnic, PushGroup, 5*sim.Millisecond)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					mon.Latest(1)
					mon.Stats()
				}
			}
		}()
	}
	r.eng.RunUntil(2 * sim.Second)
	close(done)
	wg.Wait()
	received, torn := mon.Stats()
	if received == 0 || torn != 0 {
		t.Fatalf("received=%d torn=%d", received, torn)
	}
}

// Closing a sink pops the front-end NIC's region table from its end:
// every deregistration removes the table's last entry, so tearing down
// 8192 slots shifts nothing, and the table ends empty.
func TestPushSinkCloseIsTailPops(t *testing.T) {
	r := newRig(37)
	backends := make([]int, 8192)
	for i := range backends {
		backends[i] = i + 1
	}
	sink := NewPushSink(r.front, r.fnic, backends)
	table := reflect.ValueOf(r.fnic).Elem().FieldByName("mrs")
	if table.Len() != len(backends) {
		t.Fatalf("front-end NIC holds %d regions, want %d", table.Len(), len(backends))
	}
	inner, calls, notLast := deregister, 0, 0
	deregister = func(n *simnet.NIC, mr *simnet.MR) {
		calls++
		if table.Index(table.Len()-1).Pointer() != uintptr(unsafe.Pointer(mr)) {
			notLast++
		}
		inner(n, mr)
	}
	defer func() { deregister = inner }()
	sink.Close()
	if calls != len(backends) || notLast != 0 || table.Len() != 0 {
		t.Fatalf("Close made %d deregistrations, %d not of the table's last entry, and left %d regions; want %d, 0, 0",
			calls, notLast, table.Len(), len(backends))
	}
}

// BenchmarkPusherCheck is the host cost of one quiet DeltaPusher check
// — the /proc sample, the record built in place, the score against the
// cached index and the sleep — through core + simos + sim, the node's
// own timer ticks included (ns/op and allocs/op are per check).
func BenchmarkPusherCheck(b *testing.B) {
	r := newRig(36)
	sink := NewPushSink(r.front, r.fnic, []int{1})
	// The heartbeat lies past the whole run (warm-up plus b.N checks),
	// so every timed check is a quiet one whatever b.N is.
	check := 10 * sim.Millisecond
	cfg := HybridConfig{Check: check, Heartbeat: 4*sim.Second + 2*sim.Time(b.N)*check}
	p := StartDeltaPusher(r.backend, r.bnic, 0, func() uint32 { return sink.SlotKey(1) }, cfg)
	r.eng.RunUntil(2 * sim.Second)
	if p.Pushes == 0 {
		b.Fatal("pusher never primed")
	}
	pushes := p.Pushes
	b.ReportAllocs()
	b.ResetTimer()
	for target := p.Skips + uint64(b.N); p.Skips < target; {
		if !r.eng.Step() {
			b.Fatal("simulation ran out of events")
		}
	}
	b.StopTimer()
	if p.Pushes != pushes {
		b.Fatalf("%d pushes: the benchmark must time quiet checks only", p.Pushes-pushes)
	}
}
