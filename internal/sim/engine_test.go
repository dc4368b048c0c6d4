package sim

import (
	"fmt"
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
	e.Run()
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
	e.Run()
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
	e.Run()
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
	e.Run()
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
	e.Run()
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
	e.Run()
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
	e.Run()
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
	e.Run()
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
	e.Run()
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
		e.Run()
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
	if (3 * Millisecond).Millis() != 3 {
		t.Error("Millis conversion wrong")
	}
	if (7 * Microsecond).Micros() != 7 {
		t.Error("Micros conversion wrong")
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
		e.Run()
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
	e.Run()
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
	if ev.At() != 25 {
		t.Fatalf("At = %v", ev.At())
	}
	if e.Len() != 1 {
		t.Fatalf("Len = %d", e.Len())
	}
	e.Run()
	if e.Len() != 0 {
		t.Fatal("queue should drain")
	}
	if e.Processed != 1 {
		t.Fatalf("Processed = %d", e.Processed)
	}
}
