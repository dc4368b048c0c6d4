//go:build !race

package sim

import "testing"

// TestTickerZeroAlloc pins the owned tick event: once the queue and
// the free list have grown to their working size, tickers that each
// raise handle-free events allocate nothing as they tick.
func TestTickerZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	nop := func() {}
	ticks := 0
	for i := 0; i < 64; i++ {
		e.NewTicker(10, func() {
			ticks++
			e.Post(1, nop)
			e.Post(1, nop)
		})
	}
	e.RunFor(100) // warm-up
	before := ticks
	if allocs := testing.AllocsPerRun(20, func() { e.RunFor(100) }); allocs != 0 {
		t.Fatalf("ticking allocates %.1f objects per 100 time units, want 0", allocs)
	}
	if ticks == before {
		t.Fatal("no tick fired in the measured window")
	}
}

// TestTimerZeroAlloc pins the owned one-shot event: arming, replacing a
// pending arm, stopping and firing a timer allocate nothing.
func TestTimerZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	tms := make([]*Timer, 16)
	for i := range tms {
		tms[i] = e.NewTimer(func() { fired++ })
	}
	round := func() {
		for i, tm := range tms {
			tm.Reset(Time(1 + i%4))
		}
		for i, tm := range tms {
			switch i % 3 {
			case 0:
				tm.Reset(2) // replace the pending arm
			case 1:
				tm.Stop()
			}
		}
		e.RunFor(10)
	}
	round() // warm-up: the queue grows to its working size
	before := fired
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("timers allocate %.1f objects per round, want 0", allocs)
	}
	if fired == before {
		t.Fatal("no timer fired in the measured window")
	}
}
