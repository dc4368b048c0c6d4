package simnet

import (
	"testing"

	"rdmamon/internal/sim"
	"rdmamon/internal/simos"
)

// batchRig builds a front node plus n targets, each exposing a 1-byte
// region whose content is the target's node ID.
func batchRig(t *testing.T, n int) (*rig, []uint32) {
	t.Helper()
	r := newRig(t, n+1, Defaults())
	keys := make([]uint32, n+1)
	for i := 1; i <= n; i++ {
		id := byte(i)
		keys[i] = r.nics[i].RegisterMR(StaticSource([]byte{id}), 1).Key()
	}
	return r, keys
}

func TestReadBatchIsPositionalAndCorrect(t *testing.T) {
	const n = 8
	r, keys := batchRig(t, n)
	reqs := make([]ReadReq, n)
	for i := 0; i < n; i++ {
		reqs[i] = ReadReq{Target: i + 1, Key: keys[i+1], Length: 1}
	}
	var got []ReadResult
	r.nodes[0].Spawn("reader", func(tk *simos.Task) {
		r.nics[0].RDMAReadBatchInto(tk, reqs, nil, func(res []ReadResult) { got = res })
	})
	r.eng.RunUntil(sim.Second)
	if len(got) != n {
		t.Fatalf("got %d results, want %d", len(got), n)
	}
	for i, res := range got {
		if res.Err != nil {
			t.Fatalf("slot %d: unexpected error %v", i, res.Err)
		}
		if len(res.Data) != 1 || res.Data[0] != byte(i+1) {
			t.Fatalf("slot %d: data %v attributed to the wrong target", i, res.Data)
		}
	}
	if r.nics[0].DoorbellBatches != 1 {
		t.Fatalf("DoorbellBatches = %d, want 1", r.nics[0].DoorbellBatches)
	}
	if r.nics[0].RDMAReads != n {
		t.Fatalf("RDMAReads = %d, want %d", r.nics[0].RDMAReads, n)
	}
}

func TestReadBatchIsolatesPerRequestErrors(t *testing.T) {
	r, keys := batchRig(t, 3)
	r.nodes[2].Crash()
	reqs := []ReadReq{
		{Target: 1, Key: keys[1], Length: 1},
		{Target: 2, Key: keys[2], Length: 1},      // dead node: ErrTimeout
		{Target: 3, Key: keys[3] + 99, Length: 1}, // bad key
	}
	var got []ReadResult
	r.nodes[0].Spawn("reader", func(tk *simos.Task) {
		r.nics[0].RDMAReadBatchInto(tk, reqs, nil, func(res []ReadResult) { got = res })
	})
	r.eng.RunUntil(sim.Second)
	if got == nil {
		t.Fatal("batch never completed")
	}
	if got[0].Err != nil || got[0].Data[0] != 1 {
		t.Fatalf("healthy slot polluted: %+v", got[0])
	}
	if got[1].Err != ErrTimeout {
		t.Fatalf("dead-target slot: err=%v, want ErrTimeout", got[1].Err)
	}
	if got[2].Err != ErrBadKey {
		t.Fatalf("bad-key slot: err=%v, want ErrBadKey", got[2].Err)
	}
}

// TestReadBatchBeatsSequentialReads: a batch of k reads completes in
// far less virtual time than k sequential reads — the whole point of
// ringing the doorbell once.
func TestReadBatchBeatsSequentialReads(t *testing.T) {
	const k = 16
	seq := func() sim.Time {
		r, keys := batchRig(t, k)
		var done sim.Time
		r.nodes[0].Spawn("reader", func(tk *simos.Task) {
			var step func(i int)
			step = func(i int) {
				if i == k {
					done = r.eng.Now()
					return
				}
				r.nics[0].RDMARead(tk, i+1, keys[i+1], 1, func([]byte, error) { step(i + 1) })
			}
			step(0)
		})
		r.eng.RunUntil(sim.Second)
		return done
	}()
	batch := func() sim.Time {
		r, keys := batchRig(t, k)
		reqs := make([]ReadReq, k)
		for i := 0; i < k; i++ {
			reqs[i] = ReadReq{Target: i + 1, Key: keys[i+1], Length: 1}
		}
		var done sim.Time
		r.nodes[0].Spawn("reader", func(tk *simos.Task) {
			r.nics[0].RDMAReadBatchInto(tk, reqs, nil, func([]ReadResult) { done = r.eng.Now() })
		})
		r.eng.RunUntil(sim.Second)
		return done
	}()
	if batch == 0 || seq == 0 {
		t.Fatalf("runs did not complete: batch=%v seq=%v", batch, seq)
	}
	if batch*4 > seq {
		t.Fatalf("batch %v not >=4x faster than sequential %v", batch, seq)
	}
}

func TestReadBatchEmptyCompletes(t *testing.T) {
	r, _ := batchRig(t, 1)
	called := false
	r.nodes[0].Spawn("reader", func(tk *simos.Task) {
		r.nics[0].RDMAReadBatchInto(tk, nil, nil, func(res []ReadResult) {
			called = true
			if res != nil {
				t.Errorf("empty batch returned %v", res)
			}
		})
	})
	r.eng.RunUntil(sim.Second)
	if !called {
		t.Fatal("empty batch never completed")
	}
}

// TestReadBatchDMAInstantIsLive: batched reads against a live source
// still capture the region at each read's own DMA instant (the
// RDMA-Sync property survives batching).
func TestReadBatchDMAInstantIsLive(t *testing.T) {
	r := newRig(t, 2, Defaults())
	calls := 0
	key := r.nics[1].RegisterMR(func() []byte {
		calls++
		return []byte{byte(calls)}
	}, 1).Key()
	reqs := []ReadReq{
		{Target: 1, Key: key, Length: 1},
		{Target: 1, Key: key, Length: 1},
	}
	var got []ReadResult
	r.nodes[0].Spawn("reader", func(tk *simos.Task) {
		r.nics[0].RDMAReadBatchInto(tk, reqs, nil, func(res []ReadResult) { got = res })
	})
	r.eng.RunUntil(sim.Second)
	if calls != 2 {
		t.Fatalf("source sampled %d times, want one DMA per WR", calls)
	}
	if got[0].Err != nil || got[1].Err != nil {
		t.Fatalf("errors: %v %v", got[0].Err, got[1].Err)
	}
}
