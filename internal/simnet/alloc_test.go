package simnet

import (
	"testing"

	"rdmamon/internal/sim"
	"rdmamon/internal/simos"
)

// The deliver/readback path must not allocate per op at steady state
// (DESIGN.md §13): reads DMA into the initiator's posted buffer,
// writes and atomics stage through the fabric's pooled buffers. These
// tests pin each reuse mechanism so it cannot silently regress.

func TestRDMAReadIntoUsesPostedBuffer(t *testing.T) {
	r := newRig(t, 2, Defaults())
	region := make([]byte, 64)
	for i := range region {
		region[i] = byte(i)
	}
	mr := r.nics[1].RegisterMR(StaticSource(region), len(region))
	buf := make([]byte, 64)
	var got []byte
	r.nodes[0].Spawn("rd", func(tk *simos.Task) {
		r.nics[0].RDMAReadInto(tk, 1, mr.Key(), 64, buf, func(data []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			got = data
		})
	})
	r.eng.RunUntil(sim.Second)
	if got == nil {
		t.Fatal("read never completed")
	}
	if &got[0] != &buf[0] {
		t.Fatal("completion data does not alias the posted buffer")
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("byte %d = %d", i, got[i])
		}
	}
}

func TestRDMAReadBatchIntoUsesScratch(t *testing.T) {
	r := newRig(t, 3, Defaults())
	var mrs []*MR
	for i := 1; i <= 2; i++ {
		region := make([]byte, 32)
		region[0] = byte(i)
		mrs = append(mrs, r.nics[i].RegisterMR(StaticSource(region), 32))
	}
	bufs := [][]byte{make([]byte, 32), make([]byte, 32)}
	scratch := make([]ReadResult, 0, 8)
	reqs := []ReadReq{
		{Target: 1, Key: mrs[0].Key(), Length: 32, Buf: bufs[0]},
		{Target: 2, Key: mrs[1].Key(), Length: 32, Buf: bufs[1]},
	}
	var got []ReadResult
	r.nodes[0].Spawn("batch", func(tk *simos.Task) {
		r.nics[0].RDMAReadBatchInto(tk, reqs, scratch, func(results []ReadResult) {
			got = results
		})
	})
	r.eng.RunUntil(sim.Second)
	if got == nil {
		t.Fatal("batch never completed")
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("batch results do not alias the caller's scratch")
	}
	for i, res := range got {
		if res.Err != nil {
			t.Fatalf("slot %d: %v", i, res.Err)
		}
		if &res.Data[0] != &bufs[i][0] {
			t.Fatalf("slot %d data does not alias its posted buffer", i)
		}
		if res.Data[0] != byte(i+1) {
			t.Fatalf("slot %d read %d", i, res.Data[0])
		}
	}
}

// TestPayloadPoolZeroAlloc pins the free list itself: a warm
// get/put cycle allocates nothing.
func TestPayloadPoolZeroAlloc(t *testing.T) {
	f := NewFabric(sim.NewEngine(1), Defaults())
	f.putBuf(make([]byte, 256)) // warm the pool
	allocs := testing.AllocsPerRun(200, func() {
		b := f.getBuf(144)
		f.putBuf(b)
	})
	if allocs != 0 {
		t.Fatalf("warm getBuf/putBuf allocates %.1f objects/op, want 0", allocs)
	}
}

// TestWriteStagingBufferRecycled runs sequential one-sided writes and
// checks every write after the first stages through the same pooled
// backing array instead of allocating a fresh payload copy.
func TestWriteStagingBufferRecycled(t *testing.T) {
	r := newRig(t, 2, Defaults())
	slot := make([]byte, 64)
	var staged []*byte
	mr := r.nics[1].RegisterWritableMR(StaticSource(slot), len(slot), func(b []byte) {
		staged = append(staged, &b[0])
		copy(slot, b)
	})
	data := []byte{1, 2, 3, 4}
	const writes = 5
	r.nodes[0].Spawn("wr", func(tk *simos.Task) {
		var loop func(i int)
		loop = func(i int) {
			if i >= writes {
				return
			}
			r.nics[0].RDMAWrite(tk, 1, mr.Key(), data, func(err error) {
				if err != nil {
					t.Errorf("write %d: %v", i, err)
				}
				loop(i + 1)
			})
		}
		loop(0)
	})
	r.eng.RunUntil(sim.Second)
	if len(staged) != writes {
		t.Fatalf("saw %d writes, want %d", len(staged), writes)
	}
	for i := 1; i < len(staged); i++ {
		if staged[i] != staged[0] {
			t.Fatalf("write %d staged through a fresh buffer — free list not reused", i)
		}
	}
	if slot[0] != 1 || slot[3] != 4 {
		t.Fatalf("slot contents %v", slot[:4])
	}
}

// batchLoop starts the sweep's shape on a two-node rig — a closed loop
// of 32-read doorbell batches into caller-owned buffers and result
// scratch — and returns a func that advances it by n reads.
func batchLoop(t testing.TB, r *rig) (run func(n int)) {
	region := make([]byte, 144)
	reqs := make([]ReadReq, 32)
	for i := range reqs {
		mr := r.nics[1].RegisterMR(StaticSource(region), len(region))
		reqs[i] = ReadReq{Target: 1, Key: mr.Key(), Length: len(region), Buf: make([]byte, len(region))}
	}
	scratch := make([]ReadResult, len(reqs))
	reads := 0
	r.nodes[0].Spawn("sweep", func(tk *simos.Task) {
		var loop func()
		loop = func() {
			r.nics[0].RDMAReadBatchInto(tk, reqs, scratch, func(res []ReadResult) {
				for i := range res {
					if res[i].Err != nil {
						t.Fatalf("read %d: %v", i, res[i].Err)
					}
				}
				reads += len(res)
				loop()
			})
		}
		loop()
	})
	return func(n int) {
		for target := reads + n; reads < target; {
			if !r.eng.Step() {
				t.Fatal("simulation ran out of events")
			}
		}
	}
}

// TestReadOpReleasedClean: once a batch has completed, the pooled
// state of every read in it — failed reads included — is back on the
// fabric's free list holding no callback, batch, buffer or NIC, the
// batch itself is back holding no task or results, and the next batch
// reuses the same structs.
func TestReadOpReleasedClean(t *testing.T) {
	r := newRig(t, 2, Defaults())
	region := make([]byte, 64)
	mr := r.nics[1].RegisterMR(StaticSource(region), len(region))
	reqs := []ReadReq{
		{Target: 1, Key: mr.Key(), Length: 64, Buf: make([]byte, 64)},
		{Target: 1, Key: mr.Key(), Length: 64}, // no posted buffer
		{Target: 1, Key: mr.Key() + 7, Length: 64},
		{Target: 9, Key: mr.Key(), Length: 64},
	}
	wantErr := []error{nil, nil, ErrBadKey, ErrNoRoute}
	for round := 0; round < 2; round++ {
		completed := false
		r.nodes[0].Spawn("rd", func(tk *simos.Task) {
			r.nics[0].RDMAReadBatch(tk, reqs, func(res []ReadResult) {
				completed = true
				for i := range res {
					if res[i].Err != wantErr[i] {
						t.Errorf("round %d read %d: err %v, want %v", round, i, res[i].Err, wantErr[i])
					}
				}
			})
		})
		r.eng.RunFor(sim.Millisecond)
		if !completed {
			t.Fatalf("round %d: batch never completed", round)
		}
		if len(r.fab.readOps) != len(reqs) {
			t.Fatalf("round %d: free list holds %d read ops, want %d", round, len(r.fab.readOps), len(reqs))
		}
		for i, op := range r.fab.readOps {
			if op.done != nil || op.batch != nil || op.dst != nil || op.data != nil || op.err != nil || op.nic != nil || op.tn != nil {
				t.Fatalf("round %d: free read op %d still holds a reference: %+v", round, i, op)
			}
		}
		if len(r.fab.readBatches) != 1 {
			t.Fatalf("round %d: free list holds %d read batches, want 1", round, len(r.fab.readBatches))
		}
		if b := r.fab.readBatches[0]; b.task != nil || b.results != nil || b.remaining != 0 {
			t.Fatalf("round %d: free read batch still holds a reference: %+v", round, b)
		}
	}
}

// BenchmarkSimReadBatch32 is the host cost of one read of a 32-read
// doorbell batch through simos + simnet (ns/op and allocs/op are per
// read).
func BenchmarkSimReadBatch32(b *testing.B) {
	r := newRig(b, 2, Defaults())
	run := batchLoop(b, r)
	run(32 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}
