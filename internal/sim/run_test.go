package sim

import (
	"fmt"
	"testing"
	"unsafe"
)

// checkStructure verifies the queue's shape: the heap orders run
// heads, every run is a well-linked list of one instant ascending in
// seq, heap slots plus chained events account for Len, and nothing on
// the free list is still linked.
func checkStructure(e *Engine) error {
	n := 0
	for i := range e.queue {
		s := &e.queue[i]
		if i > 0 && s.before(&e.queue[(i-1)/4]) {
			return fmt.Errorf("slot %d sorts before its parent", i)
		}
		h := s.ev
		if int(h.index) != i || h.prev != nil || s.at != h.at || s.seq != h.seq {
			return fmt.Errorf("slot %d: head index=%d prev=%v key (%v,%d) vs event (%v,%d)",
				i, h.index, h.prev != nil, s.at, s.seq, h.at, h.seq)
		}
		n++
		for p, ev := h, h.next; ev != nil; p, ev = ev, ev.next {
			if ev.index != chained || ev.prev != p || ev.at != p.at || ev.seq <= p.seq {
				return fmt.Errorf("run of slot %d: member index=%d prev ok=%v at %v vs %v seq %d after %d",
					i, ev.index, ev.prev == p, ev.at, p.at, ev.seq, p.seq)
			}
			n++
		}
	}
	if n != e.Len() {
		return fmt.Errorf("%d heap slots + %d chained events, Len() = %d", len(e.queue), n-len(e.queue), e.Len())
	}
	for _, ev := range e.free {
		if ev.fn != nil || ev.index != idle || ev.next != nil || ev.prev != nil {
			return fmt.Errorf("free node holds fn=%v index=%d next=%v prev=%v",
				ev.fn != nil, ev.index, ev.next != nil, ev.prev != nil)
		}
	}
	return nil
}

// checkHandle verifies one event against its place in the structure.
func checkHandle(ev *Event) error {
	switch {
	case ev == nil:
	case ev.index == idle:
		if ev.next != nil || ev.prev != nil {
			return fmt.Errorf("idle event still linked")
		}
	case ev.index == chained:
		if ev.prev == nil || ev.prev.next != ev {
			return fmt.Errorf("chained event is not its predecessor's successor")
		}
	}
	return nil
}

func mustStructure(t *testing.T, e *Engine, evs ...*Event) {
	t.Helper()
	if err := checkStructure(e); err != nil {
		t.Fatal(err)
	}
	for i, ev := range evs {
		if err := checkHandle(ev); err != nil {
			t.Fatalf("handle %d: %v", i, err)
		}
	}
}

func wantOrder(t *testing.T, got []int, want ...int) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fire order = %v, want %v", got, want)
	}
}

func TestEventFitsSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Event{}); sz > 48 {
		t.Fatalf("Event is %d bytes, want <= 48 (the next size class is 64)", sz)
	}
}

// One run of six; cancel its head, a middle member and its tail.
func TestRunCancelHeadMiddleTail(t *testing.T) {
	e := NewEngine(1)
	var got []int
	evs := make([]*Event, 6)
	for i := range evs {
		i := i
		evs[i] = e.Schedule(100, func() { got = append(got, i) })
	}
	if len(e.queue) != 1 || e.Len() != 6 {
		t.Fatalf("six same-instant events: %d heap slots, Len %d; want 1, 6", len(e.queue), e.Len())
	}
	for i, ev := range evs {
		if !ev.Pending() || ev.At() != 100 {
			t.Fatalf("event %d: pending=%v at=%v", i, ev.Pending(), ev.At())
		}
	}
	mustStructure(t, e, evs...)

	for n, i := range []int{0, 3, 5} { // head, middle, tail
		if !e.Cancel(evs[i]) {
			t.Fatalf("Cancel(%d) = false", i)
		}
		if e.Cancel(evs[i]) {
			t.Fatalf("second Cancel(%d) = true", i)
		}
		if evs[i].Pending() || evs[i].At() != 100 {
			t.Fatalf("cancelled event %d: pending=%v at=%v", i, evs[i].Pending(), evs[i].At())
		}
		if e.Len() != 5-n || len(e.queue) != 1 {
			t.Fatalf("after cancelling %d: Len %d, %d heap slots", i, e.Len(), len(e.queue))
		}
		mustStructure(t, e, evs...)
	}
	if e.queue[0].ev != evs[1] {
		t.Fatal("the cancelled head's successor did not take its slot")
	}
	// The candidates left are the cancelled tail and, planted, the head —
	// which has a successor. Neither may take a seventh event of the
	// instant: it misses and starts a second run, a slot, not the order.
	e.recent[1] = evs[1]
	evs = append(evs, e.Schedule(100, func() { got = append(got, 6) }))
	if e.Len() != 4 || len(e.queue) != 2 {
		t.Fatalf("after a miss: Len %d, %d heap slots; want 4, 2", e.Len(), len(e.queue))
	}
	mustStructure(t, e, evs...)
	e.Run()
	wantOrder(t, got, 1, 2, 4, 6)
	for i, ev := range evs {
		if ev.Pending() {
			t.Fatalf("event %d pending after Run", i)
		}
	}
	mustStructure(t, e, evs...)
}

// A Post node that fired and was handed out again is a chain tail like
// any other event, and the stale candidate it left behind while it sat
// on the free list attracts nothing.
func TestRecycledPostNodeAsChainTail(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Post(1, func() { got = append(got, 0) })
	node := e.queue[0].ev
	e.Step()
	if len(e.free) != 1 || e.free[0] != node || e.recent[0] != node {
		t.Fatal("fired Post node should sit on the free list, still a candidate")
	}
	a := e.Schedule(1, func() { got = append(got, 1) }) // same instant as the idle node
	if a.index == chained {
		t.Fatal("an event chained behind an idle node")
	}
	e.Post(4, func() { got = append(got, 2) }) // at 5
	if node.index == idle || node.at != 5 {
		t.Fatal("Post did not reuse the free node")
	}
	b := e.Schedule(5, func() { got = append(got, 3) })
	if b.prev != node || b.index != chained {
		t.Fatal("an event did not chain behind the recycled node")
	}
	e.Post(4, func() { got = append(got, 4) }) // a fresh node behind b
	if e.Len() != 4 || len(e.queue) != 2 {
		t.Fatalf("Len %d, %d heap slots; want 4, 2", e.Len(), len(e.queue))
	}
	mustStructure(t, e, a, b)
	e.Run()
	wantOrder(t, got, 0, 1, 2, 3, 4)
	mustStructure(t, e, a, b)
}

// A ticker's one event, re-keyed on every arm, chains behind an event
// of its next instant and then carries a successor itself.
func TestTickerEventAsChainMemberAndTail(t *testing.T) {
	e := NewEngine(1)
	var got []int
	var tk *Ticker
	tk = e.NewTicker(10, func() {
		got = append(got, 0)
		if e.Now() == 10 {
			e.After(10, func() { got = append(got, 1) }) // before the re-arm
		}
	})
	e.RunUntil(10)
	if tk.ev.index != chained || tk.ev.At() != 20 {
		t.Fatalf("re-armed tick event: index %d at %v, want chained at 20", tk.ev.index, tk.ev.At())
	}
	after := e.Schedule(20, func() { got = append(got, 2) })
	if after.prev != &tk.ev {
		t.Fatal("an event did not chain behind the ticker's event")
	}
	if e.Len() != 3 || len(e.queue) != 1 {
		t.Fatalf("Len %d, %d heap slots; want 3, 1", e.Len(), len(e.queue))
	}
	mustStructure(t, e, &tk.ev, after)
	e.RunUntil(20)
	wantOrder(t, got, 0, 1, 0, 2)
	tk.Stop()
	mustStructure(t, e, &tk.ev, after)
	if e.Len() != 0 {
		t.Fatalf("Len %d after Stop, want 0", e.Len())
	}
}

// Two runs of one instant whose sequence numbers interleave merge in
// seq order. The candidate array is steered by hand: whatever pending
// same-instant tail it offers, the order must hold.
func TestInterleavedRunsFireInSeqOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	var tails [2]*Event // of run A (even events) and run B (odd)
	var evs []*Event
	for i := 0; i < 12; i++ {
		i := i
		e.recent = [recentEvents]*Event{tails[i%2]} // nil the first time round: a miss
		ev := e.Schedule(50, func() { got = append(got, i) })
		tails[i%2] = ev
		evs = append(evs, ev)
	}
	e.Schedule(40, func() { got = append(got, -1) })
	e.Schedule(60, func() { got = append(got, 99) })
	if len(e.queue) != 4 || e.Len() != 14 {
		t.Fatalf("%d heap slots, Len %d; want 4 (two runs + two singles), 14", len(e.queue), e.Len())
	}
	mustStructure(t, e, evs...)
	e.Cancel(evs[4]) // a middle member of run A
	e.Cancel(evs[1]) // the head of run B
	mustStructure(t, e, evs...)
	for e.Step() {
		mustStructure(t, e, evs...)
	}
	wantOrder(t, got, -1, 0, 2, 3, 5, 6, 7, 8, 9, 10, 11, 99)
}

// Ticker.Stop from outside reaches an event that is chained, and one
// that heads a run another ticker's event hangs off.
func TestTickerStopWhileChained(t *testing.T) {
	e := NewEngine(1)
	ticks := [3]int{}
	var tks [3]*Ticker
	for i := range tks {
		i := i
		tks[i] = e.NewTicker(10, func() { ticks[i]++ })
	}
	e.RunUntil(10)
	if len(e.queue) != 1 || e.Len() != 3 || tks[1].ev.index != chained || tks[2].ev.index != chained {
		t.Fatalf("three lockstep tickers: %d heap slots, Len %d", len(e.queue), e.Len())
	}
	tks[1].Stop() // chained, middle
	if tks[1].ev.Pending() || e.Len() != 2 {
		t.Fatalf("stopped chained ticker: pending=%v Len=%d", tks[1].ev.Pending(), e.Len())
	}
	mustStructure(t, e, &tks[0].ev, &tks[1].ev, &tks[2].ev)
	tks[0].Stop() // head with a successor
	if e.Len() != 1 || e.queue[0].ev != &tks[2].ev {
		t.Fatal("the stopped head's successor did not take its slot")
	}
	mustStructure(t, e, &tks[0].ev, &tks[1].ev, &tks[2].ev)
	e.RunUntil(30)
	if ticks != [3]int{1, 1, 3} {
		t.Fatalf("ticks = %v, want [1 1 3]", ticks)
	}
	tks[2].Stop()
	tks[2].Stop()
	if e.Len() != 0 {
		t.Fatalf("Len %d after stopping every ticker", e.Len())
	}
}

// tickBurstFleet starts n tickers of one period that each post two
// events 1 us after every tick — a monitored fleet's timer interrupts.
// phase(i) delays ticker i's start.
func tickBurstFleet(e *Engine, n int, phase func(i int) Time) {
	nop := func() {}
	tick := func() {
		e.Post(Microsecond, nop)
		e.Post(Microsecond, nop)
	}
	for i := 0; i < n; i++ {
		if d := phase(i); d > 0 {
			e.Post(d, func() { e.NewTicker(10*Millisecond, tick) })
		} else {
			e.NewTicker(10*Millisecond, tick)
		}
	}
}

// The point of the run structure: a lockstep fleet's tick burst is
// 24 576 pending events at a tick boundary and a handful of heap
// slots, so each of them costs a pointer, not a sift.
func TestTickBurstHeapStaysShallow(t *testing.T) {
	const n = 8192
	e := NewEngine(1)
	tickBurstFleet(e, n, func(int) Time { return 0 })
	e.RunFor(20 * Millisecond)
	// Every ticker has fired at 20 ms: 2n posts wait 1 us on, n re-armed
	// ticks a period on. The next 3n steps are one whole burst.
	for i := 0; i <= 3*n; i++ {
		if i%n == 0 {
			mustStructure(t, e)
		}
		if len(e.queue) > 8 {
			t.Fatalf("at %v: %d heap slots for %d events, want <= 8", e.Now(), len(e.queue), e.Len())
		}
		if i < 3*n && !e.Step() {
			t.Fatal("queue drained")
		}
	}
	if e.Now() != 30*Millisecond || e.Len() != 3*n {
		t.Fatalf("after one burst: now %v, Len %d; want 30ms, %d", e.Now(), e.Len(), 3*n)
	}
}
