package simos

import (
	"testing"
	"unsafe"
)

// Every node has KernelStats: its per-CPU counters live in the cpus
// and its utilisation histories are sized to the CPUs the node has, so
// it stays in the 96-byte size class.
func TestKernelStatsFitsSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(KernelStats{}); sz > 96 {
		t.Fatalf("KernelStats is %d bytes, want <= 96", sz)
	}
}

// Every back-end is a Node: its Config is shared with every node built
// from an equal one, its task and port tables are slices, and its
// counters share a word with its flags, so it stays in the 192-byte
// size class.
func TestNodeFitsSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Node{}); sz > 192 {
		t.Fatalf("Node is %d bytes, want <= 192", sz)
	}
}
