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
