package tcpverbs

import (
	"testing"
	"time"
)

// Loopback round trips, timed next to the framing code: one agent, one
// connection, real TCP. `make bench` runs them with -benchmem; the
// allocation column counts both ends, since they share the process.

func BenchmarkLoopbackRead(b *testing.B) {
	a := newAgent(b)
	c := dial(b, a)
	record := make([]byte, 120)
	key := a.RegisterMR(func() []byte { return record }, len(record)).Key()
	buf := make([]byte, 0, len(record))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = c.RDMAReadInto(key, len(record), buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoopbackBatch32 times a 32-read doorbell and reports the
// cost of one read of it.
func BenchmarkLoopbackBatch32(b *testing.B) {
	a := newAgent(b)
	c := dial(b, a)
	ring := make([]byte, 2048)
	reqs := make([]BatchRead, 32)
	for i := range reqs {
		reqs[i] = BatchRead{RKey: a.RegisterMR(func() []byte { return ring }, len(ring)).Key(), Length: len(ring)}
	}
	var res []BatchResult
	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = c.RDMAReadBatchInto(reqs, res); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(time.Since(t0).Nanoseconds())/float64(b.N*len(reqs)), "ns/read")
}

// BenchmarkLoopbackWrite times a write and the Sync that lands it: one
// round trip, a write's cost when nothing follows it to carry it.
func BenchmarkLoopbackWrite(b *testing.B) {
	a := newAgent(b)
	c := dial(b, a)
	slot := make([]byte, 160)
	key := a.RegisterWritableMR(func() []byte { return slot }, len(slot), func(p []byte) { copy(slot, p) }).Key()
	data := make([]byte, len(slot))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.RDMAWrite(key, data); err != nil {
			b.Fatal(err)
		}
		if err := c.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoopbackWrite4CAS times the tail of a live-mixed iteration:
// four posted writes of a push record and the compare-and-swap whose
// doorbell carries them.
func BenchmarkLoopbackWrite4CAS(b *testing.B) {
	a := newAgent(b)
	c := dial(b, a)
	slot := make([]byte, 160)
	key := a.RegisterWritableMR(func() []byte { return slot }, len(slot), func(p []byte) { copy(slot, p) }).Key()
	word := make([]byte, 8)
	wkey := a.RegisterWritableMR(func() []byte { return word }, len(word), func(p []byte) { copy(word, p) }).Key()
	data := make([]byte, len(slot))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := 0; w < 4; w++ {
			if err := c.RDMAWrite(key, data); err != nil {
				b.Fatal(err)
			}
		}
		if prev, err := c.CompareSwap(wkey, uint64(i), uint64(i)+1); err != nil || prev != uint64(i) {
			b.Fatalf("cas %d: prev %d, %v", i, prev, err)
		}
	}
}

func BenchmarkLoopbackCAS(b *testing.B) {
	a := newAgent(b)
	c := dial(b, a)
	word := make([]byte, 8)
	key := a.RegisterWritableMR(func() []byte { return word }, len(word), func(p []byte) { copy(word, p) }).Key()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if prev, err := c.CompareSwap(key, uint64(i), uint64(i)+1); err != nil || prev != uint64(i) {
			b.Fatalf("cas %d: prev %d, %v", i, prev, err)
		}
	}
}
