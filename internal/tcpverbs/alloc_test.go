package tcpverbs

import (
	"bytes"
	"testing"
)

// The scratch-reuse contract of the Into APIs: warm buffers are
// recycled, not reallocated. Network ops run over real loopback TCP,
// where the runtime's poller may allocate on its own schedule, so the
// wire-facing tests assert backing-array identity instead of counting
// allocations; the pure frame decoder gets a strict zero-alloc check.

func frameStream(bodies ...[]byte) []byte {
	var buf bytes.Buffer
	for _, b := range bodies {
		buf.Write(frame(b))
	}
	return buf.Bytes()
}

func TestReadFrameIntoZeroAlloc(t *testing.T) {
	body := bytes.Repeat([]byte{0xAB}, 512)
	stream := frameStream(body)
	var fr frameReader
	r := bytes.NewReader(nil)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(stream)
		got, err := fr.next(r)
		if err != nil || len(got) != len(body) {
			t.Fatalf("frameReader.next: %d bytes, %v", len(got), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm frameReader.next allocates %.1f objects/op, want 0", allocs)
	}
}

func TestReadFrameIntoGrowsPastScratch(t *testing.T) {
	body := bytes.Repeat([]byte{0xCD}, 1024)
	fr := frameReader{buf: make([]byte, 16)}
	got, err := fr.next(bytes.NewReader(frameStream(body)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("grown read corrupted the frame body")
	}
}

func TestRDMAReadIntoReusesBuffer(t *testing.T) {
	a := newAgent(t)
	payload := []byte("ring-history-payload")
	mr := a.RegisterMR(StaticSource(payload), len(payload))
	c := dial(t, a)
	buf := make([]byte, 0, 64)
	got, err := c.RDMAReadInto(mr.Key(), len(payload), buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("RDMAReadInto = %q, want %q", got, payload)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("reply did not land in the caller's buffer")
	}
	// Second read reuses both the caller buffer and the connection's
	// internal frame scratch.
	got2, err := c.RDMAReadInto(mr.Key(), len(payload), got)
	if err != nil {
		t.Fatal(err)
	}
	if &got2[0] != &got[0] {
		t.Fatal("warm re-read abandoned the caller's buffer")
	}
}

func TestRDMAReadBatchIntoReusesResults(t *testing.T) {
	a := newAgent(t)
	const k = 4
	reqs := make([]BatchRead, k)
	for i := 0; i < k; i++ {
		id := byte(i + 1)
		mr := a.RegisterMR(StaticSource([]byte{id, id, id}), 3)
		reqs[i] = BatchRead{RKey: mr.Key(), Length: 3}
	}
	c := dial(t, a)
	res, err := c.RDMAReadBatchInto(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	ptrs := make([]*byte, k)
	for i := range res {
		if res[i].Err != nil || res[i].Data[0] != byte(i+1) {
			t.Fatalf("slot %d: %+v", i, res[i])
		}
		ptrs[i] = &res[i].Data[0]
	}
	// Passing the results back recycles the slice and every slot's Data
	// buffer: same backing arrays, fresh bytes.
	res2, err := c.RDMAReadBatchInto(reqs, res)
	if err != nil {
		t.Fatal(err)
	}
	if &res2[0] != &res[0] {
		t.Fatal("warm batch abandoned the result slice")
	}
	for i := range res2 {
		if res2[i].Err != nil || res2[i].Data[0] != byte(i+1) {
			t.Fatalf("warm slot %d: %+v", i, res2[i])
		}
		if &res2[i].Data[0] != ptrs[i] {
			t.Fatalf("warm slot %d reallocated its Data buffer", i)
		}
	}
}

// TestRequestFramesStageInScratch: every verb builds its request,
// length header included, in the connection's doorbell buffer — same
// backing array op after op — and what is left to allocate per
// operation is only what the verb's contract hands away: the sink's
// copy of a write, the caller's copy of a call reply. The counts cover
// both ends of the loopback connection, which share the process; a
// warm posted write allocates nothing at all.
func TestRequestFramesStageInScratch(t *testing.T) {
	a := newAgent(t)
	record := bytes.Repeat([]byte{3}, 120)
	ro := a.RegisterMR(StaticSource(record), len(record)).Key()
	word := make([]byte, 8)
	rw := a.RegisterWritableMR(StaticSource(word), 64, func([]byte) {}).Key()
	pong := []byte("pong")
	a.HandleCall("ping", func([]byte) []byte { return pong })
	c := dial(t, a)
	data := bytes.Repeat([]byte{7}, 64)
	buf := make([]byte, 0, len(record))
	ops := []struct {
		name   string
		opcode byte
		allocs float64
		run    func() error
	}{
		{"RDMAWrite+Sync", opWrite, 1, func() error {
			if err := c.RDMAWrite(rw, data); err != nil {
				return err
			}
			return c.Sync()
		}},
		{"CompareSwap", opCompSwap, 0, func() error { _, err := c.CompareSwap(rw, 1, 2); return err }}, // loses: no sink call
		{"Call", opCall, 1, func() error { _, err := c.Call("ping", nil); return err }},
		{"RDMAReadInto", opRead, 0, func() error { var err error; buf, err = c.RDMAReadInto(ro, len(record), buf); return err }},
	}
	// The largest doorbell first, so the buffer is sized once: a full
	// backlog of posted writes.
	for i := 0; i < maxPosted; i++ {
		if err := c.RDMAWrite(rw, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	bell := &c.bell[:1][0]
	for _, op := range ops {
		allocs := testing.AllocsPerRun(200, func() {
			if err := op.run(); err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
		})
		if f := c.bell[:5]; &f[0] != bell || f[4] != op.opcode {
			t.Fatalf("%s did not stage its request in the connection's doorbell buffer", op.name)
		}
		if allocs > op.allocs {
			t.Fatalf("%s allocates %.0f objects/op across both ends, want <= %.0f", op.name, allocs, op.allocs)
		}
	}
	// Posting alone: no I/O, so nothing on the agent, and nothing on the
	// initiator either (one warm-up call and maxPosted-1 measured stay
	// under the cap).
	if allocs := testing.AllocsPerRun(maxPosted-1, func() {
		if err := c.RDMAWrite(rw, data); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a warm posted write allocates %.1f objects, want 0", allocs)
	}
	if c.posted != maxPosted || &c.bell[0] != bell {
		t.Fatalf("%d writes posted into a fresh buffer, want %d into the warm one", c.posted, maxPosted)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
}
