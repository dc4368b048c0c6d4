//go:build !race

package simnet

import "testing"

// TestBatchReadAllocs pins the cost of one read of a steady 32-read
// batch: its three fabric stages run on pooled state and recycled
// event nodes and its completion is a slot index into the pooled
// batch, so what is left is a 32nd share of the per-batch task
// machinery (the post burst's closure, Await, Resume).
func TestBatchReadAllocs(t *testing.T) {
	r := newRig(t, 2, Defaults())
	run := batchLoop(t, r)
	run(32 * 8) // warm the free lists
	const reads = 32 * 64
	perRead := testing.AllocsPerRun(5, func() { run(reads) }) / reads
	if perRead > 0.25 {
		t.Fatalf("a batched read allocates %.2f objects, want <= 0.25", perRead)
	}
	t.Logf("%.2f allocs per batched read", perRead)
}

// TestWriteZeroAlloc pins a steady-state one-sided write, a delta
// push's shape: its stages run on a pooled op that carries its own
// staging buffer, the completion reaches the task as that op, and so a
// closed loop of writes allocates nothing.
func TestWriteZeroAlloc(t *testing.T) {
	r := newRig(t, 2, Defaults())
	run := writeLoop(t, r)
	run(16) // warm the free lists
	const writes = 64
	if perWrite := testing.AllocsPerRun(5, func() { run(writes) }) / writes; perWrite != 0 {
		t.Fatalf("a steady-state write allocates %.2f objects, want 0", perWrite)
	}
}
