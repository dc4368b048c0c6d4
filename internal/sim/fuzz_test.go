package sim

import (
	"sort"
	"testing"
)

// The reference model: the engine's contract written the slow, obvious
// way — a slice kept sorted by (at, seq), a fresh event per schedule,
// a fresh event per tick, Cancel + After per timer arm.

type refEvent struct {
	at      Time
	seq     uint64
	fn      func()
	pending bool
}

type refEngine struct {
	now       Time
	seq       uint64
	processed uint64
	queue     []*refEvent
}

func (m *refEngine) after(d Time, fn func()) *refEvent {
	if d < 0 {
		d = 0
	}
	m.seq++
	ev := &refEvent{at: m.now + d, seq: m.seq, fn: fn, pending: true}
	// seq only grows, so the new event goes after every queued event
	// with at <= its own.
	i := sort.Search(len(m.queue), func(i int) bool { return m.queue[i].at > ev.at })
	m.queue = append(m.queue, nil)
	copy(m.queue[i+1:], m.queue[i:])
	m.queue[i] = ev
	return ev
}

func (m *refEngine) cancel(ev *refEvent) bool {
	if ev == nil || !ev.pending {
		return false
	}
	for i, x := range m.queue {
		if x == ev {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			break
		}
	}
	ev.pending = false
	return true
}

func (m *refEngine) step() bool {
	if len(m.queue) == 0 {
		return false
	}
	ev := m.queue[0]
	m.queue = m.queue[1:]
	ev.pending = false
	m.now = ev.at
	m.processed++
	ev.fn()
	return true
}

func (m *refEngine) runUntil(t Time) {
	for len(m.queue) > 0 && m.queue[0].at <= t {
		m.step()
	}
	if t > m.now {
		m.now = t
	}
}

type refTicker struct {
	m       *refEngine
	period  Time
	fn      func()
	ev      *refEvent
	stopped bool
}

func (m *refEngine) newTicker(period Time, fn func()) *refTicker {
	t := &refTicker{m: m, period: period, fn: fn}
	t.arm()
	return t
}

func (t *refTicker) arm() {
	t.ev = t.m.after(t.period, func() {
		t.fn()
		if !t.stopped {
			t.arm()
		}
	})
}

func (t *refTicker) stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.m.cancel(t.ev)
}

// refTimer is Timer the obvious way: every arm is a fresh After, and
// replacing a pending arm cancels it first.
type refTimer struct {
	m  *refEngine
	fn func()
	ev *refEvent
}

func (t *refTimer) reset(d Time) {
	t.m.cancel(t.ev)
	t.ev = t.m.after(d, t.fn)
}

func (t *refTimer) stop() bool { return t.m.cancel(t.ev) }

func (t *refTimer) pending() bool { return t.ev != nil && t.ev.pending }

// engineProgram interprets data as (opcode, argument) pairs and drives
// an Engine and the reference model with the same operations, checking
// after every one that they agree on everything observable and that
// the engine's queue is well formed. An opcode byte 1hhhsccc first
// plants handle h — pending or not, of any instant, or nil — as chain
// candidate s: the model knows nothing of candidates, so whatever they
// hold must not show. Opcode 4 is Step, or — by the low bits of its
// argument — Reset or Stop of one of four timers that exist from the
// start; the last of them re-arms itself from inside every other fire.
// The caps on operations, tickers and RunUntil spans bound one input's
// work.
func engineProgram(t *testing.T, data []byte) {
	const maxOps, maxTickers, numTimers = 128, 8, 4
	if len(data) > 2*maxOps {
		data = data[:2*maxOps]
	}
	e, m := NewEngine(1), &refEngine{}
	var got, want []int // fire logs: an event logs its id, its child logs -id
	type handle struct {
		ev  *Event
		ref *refEvent
	}
	handles := []handle{{}} // slot 0 is the nil handle
	type ticker struct {
		tk  *Ticker
		ref *refTicker
	}
	var tickers []ticker
	type timer struct {
		tm  *Timer
		ref *refTimer
	}
	var timers [numTimers]timer
	for k := range timers {
		k, id := k, 1000+k
		tm := &timers[k]
		n, rn := 0, 0
		tm.tm = e.NewTimer(func() {
			got = append(got, id)
			if n++; k == numTimers-1 && n%2 == 1 {
				tm.tm.Reset(1)
			}
		})
		tm.ref = &refTimer{m: m, fn: func() {
			want = append(want, id)
			if rn++; k == numTimers-1 && rn%2 == 1 {
				tm.ref.reset(1)
			}
		}}
	}
	nextID := 0

	// An event logs its id; kind 1 then schedules a child through After,
	// kind 2 through Post — from inside the fn, where a recycled node is
	// handed straight back out.
	realFn := func(id int, kind byte, cd Time) func() {
		return func() {
			got = append(got, id)
			switch kind {
			case 1:
				e.After(cd, func() { got = append(got, -id) })
			case 2:
				e.Post(cd, func() { got = append(got, -id) })
			}
		}
	}
	refFn := func(id int, kind byte, cd Time) func() {
		return func() {
			want = append(want, id)
			if kind != 0 {
				m.after(cd, func() { want = append(want, -id) })
			}
		}
	}
	checked := 0
	check := func(op int) {
		t.Helper()
		if e.Now() != m.now || e.Len() != len(m.queue) || e.Processed != m.processed {
			t.Fatalf("op %d: engine now=%v len=%d processed=%d, model now=%v len=%d processed=%d",
				op, e.Now(), e.Len(), e.Processed, m.now, len(m.queue), m.processed)
		}
		if len(got) != len(want) {
			t.Fatalf("op %d: engine fired %d events, model %d", op, len(got), len(want))
		}
		for ; checked < len(got); checked++ {
			if got[checked] != want[checked] {
				t.Fatalf("op %d: fire %d is event %d, model says %d", op, checked, got[checked], want[checked])
			}
		}
		for i, h := range handles[1:] {
			if h.ev.Pending() != h.ref.pending || h.ev.at != h.ref.at {
				t.Fatalf("op %d: handle %d pending=%v at=%v, model pending=%v at=%v",
					op, i+1, h.ev.Pending(), h.ev.at, h.ref.pending, h.ref.at)
			}
		}
		if err := checkStructure(e); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		for i, h := range handles {
			if err := checkHandle(h.ev); err != nil {
				t.Fatalf("op %d: handle %d: %v", op, i, err)
			}
		}
		for i, tk := range tickers {
			if err := checkHandle(&tk.tk.ev); err != nil {
				t.Fatalf("op %d: ticker %d: %v", op, i, err)
			}
		}
		for i, tm := range timers {
			if tm.tm.Pending() != tm.ref.pending() || tm.ref.pending() && tm.tm.ev.at != tm.ref.ev.at {
				t.Fatalf("op %d: timer %d pending=%v at=%v, model pending=%v",
					op, i, tm.tm.Pending(), tm.tm.ev.at, tm.ref.pending())
			}
			if err := checkHandle(&tm.tm.ev); err != nil {
				t.Fatalf("op %d: timer %d: %v", op, i, err)
			}
		}
	}

	for op := 0; op+1 < len(data); op += 2 {
		code, arg := data[op]%8, data[op+1]
		d := Time(arg%16) - 2 // negative delays clamp
		kind, cd := (arg>>4)%3, Time(arg>>6)
		nextID++
		id := nextID
		if b := data[op]; b >= 0x80 {
			e.recent[int(b>>3&1)%recentEvents] = handles[int(b>>4&7)%len(handles)].ev
		}
		switch code {
		case 0:
			if d < 0 {
				d = 0
			}
			handles = append(handles, handle{
				e.Schedule(e.Now()+d, realFn(id, kind, cd)),
				m.after(d, refFn(id, kind, cd))})
		case 1:
			handles = append(handles, handle{
				e.After(d, realFn(id, kind, cd)),
				m.after(d, refFn(id, kind, cd))})
		case 2:
			e.Post(d, realFn(id, kind, cd))
			m.after(d, refFn(id, kind, cd))
		case 3: // live, fired, cancelled or nil — whatever the handle is by now
			h := handles[int(arg)%len(handles)]
			if a, b := e.Cancel(h.ev), m.cancel(h.ref); a != b {
				t.Fatalf("op %d: Cancel = %v, model %v", op, a, b)
			}
		case 4: // arg: ddddkkss — sub-op s on timer k with delay d-2
			tm := timers[int(arg>>2)%numTimers]
			switch arg & 3 {
			case 1:
				td := Time(arg>>4) - 2
				tm.tm.Reset(td)
				tm.ref.reset(td)
			case 2:
				if a, b := tm.tm.Stop(), tm.ref.stop(); a != b {
					t.Fatalf("op %d: Timer.Stop = %v, model %v", op, a, b)
				}
			default:
				if a, b := e.Step(), m.step(); a != b {
					t.Fatalf("op %d: Step = %v, model %v", op, a, b)
				}
			}
		case 5:
			until := e.Now() + Time(arg%32)
			e.RunUntil(until)
			m.runUntil(until)
		case 6: // a ticker that stops itself from inside its fn after arg>>3 ticks (0: never)
			if len(tickers) == maxTickers {
				break
			}
			period, stopAfter := 1+Time(arg%8), int(arg>>3)
			var tk ticker
			n, rn := 0, 0
			tk.tk = e.NewTicker(period, func() {
				got = append(got, id)
				if n++; n == stopAfter {
					tk.tk.Stop()
				}
			})
			tk.ref = m.newTicker(period, func() {
				want = append(want, id)
				if rn++; rn == stopAfter {
					tk.ref.stop()
				}
			})
			tickers = append(tickers, tk)
		case 7:
			if len(tickers) > 0 {
				tk := tickers[int(arg)%len(tickers)]
				tk.tk.Stop()
				tk.ref.stop()
			}
		}
		check(op)
	}
	for _, tk := range tickers {
		tk.tk.Stop()
		tk.ref.stop()
	}
	e.run()
	for m.step() {
	}
	check(len(data))
	if e.Len() != 0 {
		t.Fatalf("drained engine holds %d events", e.Len())
	}
}

func FuzzEngineOrder(f *testing.F) {
	// TestSameTimeFIFO: ten events at one instant, then run.
	var fifo []byte
	for i := 0; i < 10; i++ {
		fifo = append(fifo, 0, 7)
	}
	f.Add(append(fifo, 5, 31))
	// TestCancelMiddleOfHeap: twenty events at spread instants, cancel a
	// scattering (and the nil handle), run.
	var mid []byte
	for i := 0; i < 20; i++ {
		mid = append(mid, 1, byte(2+i%14))
	}
	for _, h := range []byte{4, 8, 12, 20, 1, 0} {
		mid = append(mid, 3, h)
	}
	f.Add(append(mid, 5, 31))
	// Post nodes recycled from inside their own fn, beside self-stopping
	// and externally stopped tickers and a double cancel.
	f.Add([]byte{2, 0x22, 2, 0x62, 6, 0x10, 6, 0x03, 2, 0xa3, 5, 20, 7, 1, 1, 5, 3, 1, 3, 1, 4, 0, 5, 40})
	// TestRunCancelHeadMiddleTail: one run of six at now+5; cancel its
	// head, a middle member and its tail; a seventh event with the new
	// head (handle 2, which has a successor) planted as a candidate; run.
	f.Add([]byte{0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 3, 1, 3, 4, 3, 6, 0xa8, 7, 5, 31})
	// TestInterleavedRunsFireInSeqOrder: eight events at now+5 steered
	// alternately behind two runs (0x80 plants nil as candidate 0; 0x90,
	// 0xb0 and 0xd0 plant handles 1, 3 and 5 there), cancel the head of
	// one run and a middle member of the other, step, run.
	f.Add([]byte{0, 7, 0x80, 7, 0x90, 7, 0x80, 7, 0xb0, 7, 0x80, 7, 0xd0, 7, 0x80, 7,
		3, 2, 3, 5, 4, 0, 4, 0, 4, 0, 5, 31})
	// TestRecycledPostNodeAsChainTail, TestTickerEventAsChainMemberAndTail,
	// TestTickerStopWhileChained: three lockstep tickers (period 3) with
	// Post nodes, their Post children and handle-bearing events at the
	// tick instants; the middle ticker, then the first, stopped from
	// outside between bursts.
	f.Add([]byte{6, 2, 6, 2, 6, 2, 2, 0x25, 2, 0x25, 0, 5, 5, 3, 7, 1, 0, 5, 2, 0x55, 5, 3,
		7, 0, 1, 5, 5, 6, 7, 2, 5, 31})
	// TestTimerFiresInSequenceOrder: After, Post and three timers' Reset
	// interleaved on one instant.
	f.Add([]byte{1, 7, 4, 0x71, 2, 7, 1, 7, 4, 0x75, 2, 7, 4, 0x79, 5, 31})
	// TestTimerResetWhilePendingRekeys: a pending arm moved later, earlier,
	// to a clamped negative delay and back.
	f.Add([]byte{1, 12, 4, 0xc1, 4, 0xf1, 4, 0x61, 4, 0x01, 4, 0x61, 5, 31})
	// ... and re-armed for the instant it already had, behind an event
	// scheduled in between.
	f.Add([]byte{4, 0x71, 1, 7, 4, 0x71, 1, 7, 5, 31})
	// TestTimerStopHeadMiddleTail: the four timers and two handle-bearing
	// events in one run; stop its head, a middle member and its tail,
	// re-arm the stopped head, run.
	f.Add([]byte{4, 0x71, 4, 0x75, 1, 7, 4, 0x79, 1, 7, 4, 0x7d, 4, 0x02, 4, 0x0a, 4, 0x0e, 4, 0x71, 5, 31})
	// TestTimerEventAsChainMemberAndTail: head, timer, tail — twice over
	// on the same timer event.
	f.Add([]byte{0, 7, 4, 0x71, 0, 7, 5, 31, 0, 7, 4, 0x71, 0, 7, 5, 31})
	// TestTimerResetFromOwnCallback: the self-re-arming timer beside an
	// event of its instant, fired by Run and then by single steps.
	f.Add([]byte{4, 0x7d, 1, 7, 5, 31, 4, 0x3d, 1, 3, 4, 0, 4, 0, 4, 0, 5, 31})
	// Timers among lockstep tickers and Post children; a timer stopped
	// and a ticker stopped between bursts, the timer re-armed after.
	f.Add([]byte{6, 2, 4, 0x51, 6, 2, 4, 0x55, 2, 0x25, 5, 3, 4, 0x06, 7, 0, 4, 0x51, 5, 31})
	f.Fuzz(engineProgram)
}
