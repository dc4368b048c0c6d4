package simos

import (
	"testing"

	"rdmamon/internal/sim"
)

// A task has one sleep deadline. A Sleep issued while an earlier one is
// pending replaces it: the task wakes once, after the second delay,
// into the second continuation; the first never runs.
func TestSleepWhilePendingSecondWins(t *testing.T) {
	eng, n := newTestNode(t, lightCfg())
	first, second := 0, sim.Time(-1)
	tk := n.Spawn("sleeper", func(tk *Task) {
		tk.Sleep(10*sim.Millisecond, func() { first++ })
	})
	eng.RunUntil(4 * sim.Millisecond)
	queued := eng.Len()
	tk.Sleep(20*sim.Millisecond, func() { second = eng.Now() })
	if eng.Len() != queued {
		t.Fatalf("second Sleep left %d events queued, want %d: the first arm leaked", eng.Len(), queued)
	}
	wakeups := tk.Wakeups
	eng.RunUntil(sim.Second)
	if first != 0 {
		t.Fatalf("the replaced Sleep's continuation ran %d times", first)
	}
	if second != 24*sim.Millisecond {
		t.Fatalf("second Sleep woke at %v, want 24ms", second)
	}
	if got := tk.Wakeups - wakeups; got != 1 {
		t.Fatalf("%d wake-ups, want 1", got)
	}
	if tk.Alive() {
		t.Fatal("task should exit after its continuation issued nothing")
	}
}

// Exit during a sleep disarms the deadline and drops the parked
// continuation, so nothing the task captured outlives it.
func TestExitDuringSleepClearsContinuation(t *testing.T) {
	eng, n := newTestNode(t, lightCfg())
	ran := false
	tk := n.Spawn("sleeper", func(tk *Task) {
		tk.Sleep(10*sim.Millisecond, func() { ran = true })
	})
	eng.RunUntil(sim.Millisecond)
	if tk.sleepFn == nil || !tk.sleepTimer.Pending() {
		t.Fatal("a sleeping task holds no parked continuation or deadline")
	}
	tk.Exit()
	if tk.sleepFn != nil || tk.sleepTimer.Pending() {
		t.Fatal("exit left the sleep continuation or its deadline behind")
	}
	eng.RunUntil(sim.Second)
	if ran || tk.Wakeups != 0 {
		t.Fatalf("dead task: continuation ran=%v, wake-ups=%d", ran, tk.Wakeups)
	}
	// A Sleep on the dead task is a no-op and arms nothing.
	tk.Sleep(sim.Millisecond, func() { ran = true })
	if tk.sleepTimer.Pending() || tk.sleepFn != nil {
		t.Fatal("Sleep on a dead task armed its deadline")
	}
}
