//go:build !race

package simos

import (
	"testing"

	"rdmamon/internal/sim"
)

// TestIdleNodeTickZeroAlloc pins the tick path: nodes whose only task
// is blocked (a timer interrupt per CPU and a utilisation sample every
// 10 ms, nothing else; the task keeps them from parking) advance
// without allocating once their queues have warmed.
func TestIdleNodeTickZeroAlloc(t *testing.T) {
	eng := sim.NewEngine(1)
	for i := 0; i < 1024; i++ {
		n := NewNode(eng, i, NodeDefaults())
		n.Spawn("blocked", func(tk *Task) { tk.Recv(n.Port("unused"), func(Message) {}) })
	}
	eng.RunFor(sim.Second) // past the utilisation window
	if allocs := testing.AllocsPerRun(1, func() { eng.RunFor(sim.Second) }); allocs != 0 {
		t.Fatalf("1024 idle nodes allocate %.0f objects per simulated second, want 0", allocs)
	}
}

// TestTaskComputeSleepZeroAlloc pins the task's owned deadlines: a task
// looping Compute -> Sleep on pre-bound continuations re-arms its burst
// and sleep timers in place, so an iteration allocates nothing.
func TestTaskComputeSleepZeroAlloc(t *testing.T) {
	eng := sim.NewEngine(1)
	node := NewNode(eng, 0, NodeDefaults())
	loops := 0
	node.Spawn("loop", func(tk *Task) {
		var compute, sleep func()
		compute = func() { tk.Compute(10*sim.Microsecond, sleep) }
		sleep = func() { loops++; tk.Sleep(10*sim.Microsecond, compute) }
		compute()
	})
	eng.RunFor(sim.Second) // past the utilisation window
	before := loops
	if allocs := testing.AllocsPerRun(5, func() { eng.RunFor(100 * sim.Millisecond) }); allocs != 0 {
		t.Fatalf("a Compute/Sleep loop allocates %.0f objects per 100 ms (%d iterations), want 0", allocs, (loops-before)/6)
	}
	if loops == before {
		t.Fatal("the loop did not run in the measured window")
	}
}
