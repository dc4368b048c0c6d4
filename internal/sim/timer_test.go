package sim

import "testing"

// Whatever mix of After, Post and Timer.Reset lands on one instant, the
// fire order is the order the calls were made in: a re-armed timer takes
// the place After would have taken.
func TestTimerFiresInSequenceOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	log := func(i int) func() { return func() { got = append(got, i) } }
	t1, t4, t6 := e.NewTimer(log(1)), e.NewTimer(log(4)), e.NewTimer(log(6))
	e.After(5, log(0))
	t1.Reset(5)
	e.Post(5, log(2))
	e.After(5, log(3))
	t4.Reset(5)
	e.Post(5, log(5))
	t6.Reset(5)
	e.After(3, log(-1))
	if e.Len() != 8 || heads(e) != 2 {
		t.Fatalf("Len %d, %d slots; want 8, 2", e.Len(), heads(e))
	}
	mustStructure(t, e, &t1.ev, &t4.ev, &t6.ev)
	e.run()
	wantOrder(t, got, -1, 0, 1, 2, 3, 4, 5, 6)
	if e.Now() != 5 || t1.Pending() || t4.Pending() || t6.Pending() {
		t.Fatalf("now %v, timers pending %v %v %v", e.Now(), t1.Pending(), t4.Pending(), t6.Pending())
	}
	// Second round on the same three events, armed in another order. A
	// pending timer re-armed for the instant it already had gives up its
	// place all the same.
	got = got[:0]
	t6.Reset(2)
	t1.Reset(2)
	e.After(2, log(0))
	t4.Reset(2)
	t6.Reset(2)
	mustStructure(t, e, &t1.ev, &t4.ev, &t6.ev)
	e.run()
	wantOrder(t, got, 1, 0, 4, 6)
}

// Reset while pending re-keys the one event: the old instant does not
// fire, the new one does, and Len never counted two.
func TestTimerResetWhilePendingRekeys(t *testing.T) {
	e := NewEngine(1)
	fired := []Time{}
	tm := e.NewTimer(func() { fired = append(fired, e.Now()) })
	if tm.Pending() || tm.Stop() {
		t.Fatal("a new timer is armed")
	}
	e.After(10, func() {})
	tm.Reset(10) // chained behind the After
	if e.Len() != 2 || !tm.Pending() {
		t.Fatalf("Len %d pending %v", e.Len(), tm.Pending())
	}
	tm.Reset(20) // later
	if e.Len() != 2 || tm.ev.at != 20 {
		t.Fatalf("after re-key: Len %d at %v", e.Len(), tm.ev.at)
	}
	mustStructure(t, e, &tm.ev)
	tm.Reset(4) // earlier
	if e.Len() != 2 || tm.ev.at != 4 {
		t.Fatalf("after second re-key: Len %d at %v", e.Len(), tm.ev.at)
	}
	tm.Reset(-7) // clamps like After
	if tm.ev.at != 0 {
		t.Fatalf("negative delay armed at %v", tm.ev.at)
	}
	tm.Reset(4)
	mustStructure(t, e, &tm.ev)
	e.run()
	if len(fired) != 1 || fired[0] != 4 {
		t.Fatalf("fired at %v, want once at 4", fired)
	}
	if e.Processed != 2 {
		t.Fatalf("%d events processed, want 2", e.Processed)
	}
}

// Stop reaches a timer's event at the head of a run, in the middle and
// at the tail; the successor of a stopped head takes its slot.
func TestTimerStopHeadMiddleTail(t *testing.T) {
	e := NewEngine(1)
	var got []int
	tms := make([]*Timer, 6)
	evs := make([]*Event, 6)
	for i := range tms {
		i := i
		tms[i] = e.NewTimer(func() { got = append(got, i) })
		tms[i].Reset(100)
		evs[i] = &tms[i].ev
	}
	if heads(e) != 1 || e.Len() != 6 {
		t.Fatalf("six same-instant timers: %d slots, Len %d", heads(e), e.Len())
	}
	for n, i := range []int{0, 3, 5} { // head, middle, tail
		if !tms[i].Stop() || tms[i].Stop() || tms[i].Pending() {
			t.Fatalf("Stop(%d): want true then false, not pending", i)
		}
		if e.Len() != 5-n || heads(e) != 1 {
			t.Fatalf("after stopping %d: Len %d, %d slots", i, e.Len(), heads(e))
		}
		mustStructure(t, e, evs...)
	}
	if e.peek() != evs[1] {
		t.Fatal("the stopped head's successor did not take its slot")
	}
	tms[0].Reset(100) // a stopped timer re-arms: behind the run, or a run of its own
	mustStructure(t, e, evs...)
	e.run()
	wantOrder(t, got, 1, 2, 4, 0)
}

// A timer's event is a chain member and a chain tail like any other:
// it hangs behind an event of its instant and then carries a successor,
// and after firing and re-arming it does so again.
func TestTimerEventAsChainMemberAndTail(t *testing.T) {
	e := NewEngine(1)
	var got []int
	tm := e.NewTimer(func() { got = append(got, 1) })
	for round := 0; round < 2; round++ {
		at := e.Now() + 10
		head := e.Schedule(at, func() { got = append(got, 0) })
		tm.Reset(10)
		if tm.ev.index != chained || tm.ev.prev != head {
			t.Fatalf("round %d: timer event not chained behind the head", round)
		}
		after := e.Schedule(at, func() { got = append(got, 2) })
		if after.prev != &tm.ev {
			t.Fatalf("round %d: an event did not chain behind the timer's event", round)
		}
		if e.Len() != 3 || heads(e) != 1 {
			t.Fatalf("round %d: Len %d, %d slots; want 3, 1", round, e.Len(), heads(e))
		}
		mustStructure(t, e, head, &tm.ev, after)
		e.run()
		mustStructure(t, e, head, &tm.ev, after)
	}
	wantOrder(t, got, 0, 1, 2, 0, 1, 2)
}

// Reset from inside the timer's own callback: the event has left the
// queue by then, so this is a plain arm — at the same instant (a new
// run behind everything already there) or later.
func TestTimerResetFromOwnCallback(t *testing.T) {
	e := NewEngine(1)
	var got []int
	var tm *Timer
	n := 0
	tm = e.NewTimer(func() {
		got = append(got, int(e.Now()))
		switch n++; n {
		case 1:
			tm.Reset(0) // same instant, after the event already queued there
		case 2:
			tm.Reset(7)
		}
		if n < 3 && !tm.Pending() {
			t.Fatal("timer not pending after Reset in its callback")
		}
	})
	tm.Reset(5)
	e.After(5, func() { got = append(got, -5) })
	e.run()
	wantOrder(t, got, 5, -5, 5, 12)
	if tm.Pending() || e.Len() != 0 {
		t.Fatalf("pending %v, Len %d after the last fire", tm.Pending(), e.Len())
	}
}

func TestNewTimerNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTimer(nil) did not panic")
		}
	}()
	NewEngine(1).NewTimer(nil)
}

// BenchmarkTimerReset is a task's deadline pattern: one timer armed,
// most arms replaced before they fire (a burst preempted, a sleep
// rescheduled), one in four left to fire.
func BenchmarkTimerReset(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < 256; i++ { // a queue to sift against
		e.After(Time(i+1)*Second, func() {})
	}
	fired := 0
	tm := e.NewTimer(func() { fired++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(Time(1 + i&7))
		if i&3 == 3 {
			e.Step()
		}
	}
	if fired == 0 && b.N > 4 {
		b.Fatal("no timer fired")
	}
}
