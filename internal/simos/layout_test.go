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
