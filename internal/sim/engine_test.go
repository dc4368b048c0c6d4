package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, func() { got = append(got, i) })
	}
	e.run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestAfterFromWithinEvent(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	e.Schedule(5, func() {
		e.After(10, func() { times = append(times, e.Now()) })
	})
	e.run()
	if len(times) != 1 || times[0] != 15 {
		t.Fatalf("nested After = %v, want [15]", times)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	if !ev.Pending() {
		t.Fatal("event should be pending")
	}
	if !e.Cancel(ev) {
		t.Fatal("Cancel should report true for pending event")
	}
	if e.Cancel(ev) {
		t.Fatal("double Cancel should report false")
	}
	e.run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ev.Pending() {
		t.Fatal("cancelled event still pending")
	}
}

func TestCancelNil(t *testing.T) {
	e := NewEngine(1)
	if e.Cancel(nil) {
		t.Fatal("Cancel(nil) should be false")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine(1)
	var got []int
	evs := make([]*Event, 20)
	for i := 0; i < 20; i++ {
		i := i
		evs[i] = e.Schedule(Time(i*10), func() { got = append(got, i) })
	}
	// Cancel a scattering of events and verify the rest fire in order.
	for _, i := range []int{3, 7, 11, 19, 0} {
		e.Cancel(evs[i])
	}
	e.run()
	prev := -1
	for _, v := range got {
		if v <= prev {
			t.Fatalf("out of order after cancels: %v", got)
		}
		prev = v
	}
	if len(got) != 15 {
		t.Fatalf("got %d events, want 15", len(got))
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(100, func() {})
	e.run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	e.Schedule(50, func() {})
}

func TestScheduleNilFuncPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling nil func should panic")
		}
	}()
	e.Schedule(10, nil)
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want 2 events", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("Now = %v, want 25", e.Now())
	}
	e.RunUntil(30) // boundary inclusive
	if len(fired) != 3 {
		t.Fatalf("fired %v, want 3 events after boundary", fired)
	}
	e.run()
	if len(fired) != 4 {
		t.Fatalf("fired %v, want all 4", fired)
	}
}

func TestRunFor(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.NewTicker(10, func() { n++ })
	e.RunFor(100)
	if n != 10 {
		t.Fatalf("ticks = %d, want 10", n)
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var tk *Ticker
	tk = e.NewTicker(10, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	e.run()
	if n != 3 {
		t.Fatalf("ticks after stop = %d, want 3", n)
	}
	tk.Stop() // idempotent
}

func TestTickerBadPeriodPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero ticker period should panic")
		}
	}()
	e.NewTicker(0, func() {})
}

func TestNegativeAfterClamps(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(50, func() {})
	e.RunUntil(50)
	fired := false
	e.After(-10, func() { fired = true })
	e.run()
	if !fired {
		t.Fatal("After with negative delay should fire immediately")
	}
	if e.Now() != 50 {
		t.Fatalf("Now = %v, want 50", e.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		e := NewEngine(seed)
		var trace []int64
		var rec func()
		rec = func() {
			trace = append(trace, int64(e.Now()))
			if len(trace) < 200 {
				e.After(Time(e.Rand().Intn(1000)+1), rec)
			}
		}
		e.Schedule(0, rec)
		e.run()
		return trace
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2us"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if (1500 * Millisecond).Seconds() != 1.5 {
		t.Error("Seconds conversion wrong")
	}
}

// Property: for any batch of (delay, id) pairs, events fire in
// nondecreasing time order and every non-cancelled event fires exactly
// once.
func TestQuickHeapProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		fired := make([]bool, len(delays))
		var last Time = -1
		ok := true
		for i, d := range delays {
			i, d := i, d
			e.Schedule(Time(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
				if fired[i] {
					ok = false
				}
				fired[i] = true
			})
		}
		e.run()
		for _, f := range fired {
			if !f {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%1000), func() {})
		if e.Len() > 10000 {
			e.RunFor(1000)
		}
	}
	e.run()
}

// BenchmarkEngineHold is the hold model — schedule one event at a
// random delay, execute one — on a queue of standing depth d.
func BenchmarkEngineHold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	delays := make([]Time, 4096)
	for i := range delays {
		delays[i] = Time(rng.Int63n(int64(10 * Millisecond)))
	}
	nop := func() {}
	for _, d := range []int{256, 24576} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			e := NewEngine(1)
			for i := 0; i < d; i++ {
				e.After(delays[i%len(delays)], nop)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.After(delays[i%len(delays)], nop)
				e.Step()
			}
		})
	}
}

// BenchmarkEngineHoldTimers is dispatch-64's queue: 1 536 timers parked
// 0.04–750 ms out, log-uniform (clients' think times and request
// timeouts), each re-armed when it fires, beside 32 chains of events
// 0.1–20 us apart (interrupts, bursts, messages) that carry almost
// every step. One iteration is one Step.
func BenchmarkEngineHoldTimers(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	far, near := make([]Time, 4096), make([]Time, 4096)
	for i := range far {
		far[i] = Time(float64(40*Microsecond) * math.Pow(750.0/0.04, rng.Float64()))
		near[i] = 100 + Time(rng.Int63n(int64(20*Microsecond)))
	}
	e := NewEngine(1)
	k := 0
	for i := 0; i < 1536; i++ {
		var tm *Timer
		tm = e.NewTimer(func() {
			k++
			tm.Reset(far[k%len(far)])
		})
		tm.Reset(far[i])
	}
	j := 0
	var churn func()
	churn = func() {
		j++
		e.Post(near[j%len(near)], churn)
	}
	for i := 0; i < 32; i++ {
		e.Post(near[i], churn)
	}
	e.RunFor(Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineSameInstantKeyed posts n keyed events for one instant,
// in random key order, and runs them: every one holds a slot of its own
// (PostKeyed never chains), so the queue orders n heads of one instant.
// ns/event must not grow with n faster than a heap's log n.
func BenchmarkEngineSameInstantKeyed(b *testing.B) {
	nop := func() {}
	for _, n := range []int{1024, 32768} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := NewEngine(1)
			keys := make([]uint64, n)
			order := rand.New(rand.NewSource(1)).Perm(n)
			round := func() {
				for i := range keys {
					keys[i] = e.Reserve()
				}
				for _, i := range order {
					e.PostKeyed(e.Now()+Microsecond, keys[i], nop)
				}
				e.RunFor(Microsecond)
			}
			round()
			round() // the arrays the queue passes between its buckets reach size
			p0 := e.Processed
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.Processed-p0), "ns/event")
		})
	}
}

// BenchmarkEngineTickBurst is the tie-heavy pattern of a monitored
// fleet: n tickers fire at the same instants and each raises two
// events 1 us later, so every tick instant enqueues 3n events whose
// timestamps tie. staggered starts the same tickers at n distinct
// phases of the period: the same events with no ties, the shape run
// chaining must not slow. One iteration is one tick period.
func BenchmarkEngineTickBurst(b *testing.B) {
	const n = 8192
	for _, c := range []struct {
		name  string
		phase func(i int) Time
	}{
		{"n=8192", func(int) Time { return 0 }},
		{"staggered", func(i int) Time { return Time(i) * (10 * Millisecond / n) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			e := NewEngine(1)
			tickBurstFleet(e, n, c.phase)
			e.RunFor(30 * Millisecond)
			p0 := e.Processed
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.RunFor(10 * Millisecond)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.Processed-p0), "ns/event")
		})
	}
}

// BenchmarkEngineCancelChained arms n events for one instant — one
// run — and cancels them in random order: the timeout pattern, where
// a batch of deadlines is armed together and almost none fires.
func BenchmarkEngineCancelChained(b *testing.B) {
	const n = 8192
	e := NewEngine(1)
	nop := func() {}
	evs := make([]*Event, n)
	order := rand.New(rand.NewSource(1)).Perm(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range evs {
			evs[j] = e.After(Millisecond, nop)
		}
		for _, j := range order {
			e.Cancel(evs[j])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
	if e.Len() != 0 {
		b.Fatalf("%d events left after cancelling all", e.Len())
	}
}

func TestEventAtAndLen(t *testing.T) {
	e := NewEngine(1)
	ev := e.Schedule(25, func() {})
	if ev.at != 25 {
		t.Fatalf("At = %v", ev.at)
	}
	if e.Len() != 1 {
		t.Fatalf("Len = %d", e.Len())
	}
	e.run()
	if e.Len() != 0 {
		t.Fatal("queue should drain")
	}
	if e.Processed != 1 {
		t.Fatalf("Processed = %d", e.Processed)
	}
}

// A keyed event takes the place an event enqueued earlier would have:
// KeyAt(t, r) fires after everything enqueued before t and before
// everything enqueued at t, and a Reserve'd key where the event
// enqueued at the reserving instant would. Fired answers the same
// order, from inside an event and between events.
func TestKeyedEventsTakeTheirEnqueuePlace(t *testing.T) {
	e := NewEngine(1)
	var got []string
	log := func(s string) func() { return func() { got = append(got, s) } }
	var reserved uint64
	e.Schedule(100, log("early")) // enqueued at 0
	e.Schedule(5, func() {
		e.Schedule(100, log("at5-first"))
		reserved = e.Reserve()
		e.Schedule(100, log("at5-second"))
	})
	e.Schedule(10, func() {
		e.Schedule(100, log("at10"))
		e.PostKeyed(100, KeyAt(5, 0), log("keyed-at5"))
		e.PostKeyed(100, reserved, log("reserved-at5"))
		tk := e.NewTicker(50, log("tick"))
		tk.Stop()
		tk.ResumeKeyed(100, KeyAt(0, 3))
	})
	e.Schedule(100, func() {
		if !e.Fired(100, KeyAt(0, 3)) || e.Fired(100, KeyAt(5, 0)) || !e.Fired(99, KeyAt(99, 0)) {
			t.Error("Fired disagrees with the fire order inside an event")
		}
	})
	e.RunUntil(100)
	want := []string{"tick", "early", "keyed-at5", "at5-first", "reserved-at5", "at5-second", "at10"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fire order %v, want %v", got, want)
	}
	if !e.Fired(100, KeyAt(100, 0)) || e.Fired(101, 0) {
		t.Fatal("between events, everything due by now has fired and nothing later has")
	}
	e.Schedule(100, log("late"))
	if e.Fired(100, KeyAt(100, firstRank+1<<10)) {
		t.Fatal("between Steps, a key after the pending event of this instant has not fired")
	}
}
