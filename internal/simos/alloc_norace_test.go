//go:build !race

package simos

import (
	"testing"

	"rdmamon/internal/sim"
)

// TestIdleNodeTickZeroAlloc pins the tick path: idle nodes (a timer
// interrupt per CPU and a utilisation sample every 10 ms, nothing
// else) advance without allocating once their queues have warmed.
func TestIdleNodeTickZeroAlloc(t *testing.T) {
	eng := sim.NewEngine(1)
	for i := 0; i < 1024; i++ {
		NewNode(eng, i, NodeDefaults())
	}
	eng.RunFor(sim.Second) // past the utilisation window
	if allocs := testing.AllocsPerRun(1, func() { eng.RunFor(sim.Second) }); allocs != 0 {
		t.Fatalf("1024 idle nodes allocate %.0f objects per simulated second, want 0", allocs)
	}
}
