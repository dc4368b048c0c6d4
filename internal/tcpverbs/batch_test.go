package tcpverbs

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

func TestReadBatchPipelined(t *testing.T) {
	a := newAgent(t)
	const k = 8
	reqs := make([]BatchRead, k)
	for i := 0; i < k; i++ {
		id := byte(i + 1)
		mr := a.RegisterMR(StaticSource([]byte{id}), 1)
		reqs[i] = BatchRead{RKey: mr.Key(), Length: 1}
	}
	c := dial(t, a)
	res, err := c.RDMAReadBatchInto(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != k {
		t.Fatalf("got %d results, want %d", len(res), k)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("slot %d: %v", i, r.Err)
		}
		if len(r.Data) != 1 || r.Data[0] != byte(i+1) {
			t.Fatalf("slot %d: data %v attributed to the wrong region", i, r.Data)
		}
	}
	if got := a.BatchedReads(); got != k {
		t.Fatalf("BatchedReads = %d, want %d", got, k)
	}
	reads, _, _ := a.Stats()
	if reads != k {
		t.Fatalf("served reads = %d, want %d", reads, k)
	}
}

func TestReadBatchPerSlotErrors(t *testing.T) {
	a := newAgent(t)
	mr := a.RegisterMR(StaticSource([]byte{7}), 1)
	c := dial(t, a)
	res, err := c.RDMAReadBatchInto([]BatchRead{
		{RKey: mr.Key(), Length: 1},
		{RKey: mr.Key() + 99, Length: 1}, // unknown key
		{RKey: mr.Key(), Length: 100},    // beyond bounds
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[0].Data[0] != 7 {
		t.Fatalf("healthy slot polluted: %+v", res[0])
	}
	if res[1].Err != ErrBadKey {
		t.Fatalf("bad-key slot: err = %v, want ErrBadKey", res[1].Err)
	}
	if res[2].Err != ErrLength {
		t.Fatalf("oversized slot: err = %v, want ErrLength", res[2].Err)
	}
}

func TestReadBatchEmpty(t *testing.T) {
	a := newAgent(t)
	c := dial(t, a)
	res, err := c.RDMAReadBatchInto(nil, nil)
	if err != nil || res != nil {
		t.Fatalf("empty batch: %v %v", res, err)
	}
}

func TestReadBatchSurvivesAgentRestart(t *testing.T) {
	a, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := a.Addr()
	mr := a.RegisterMR(StaticSource([]byte{1, 2, 3, 4}), 4)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Retry = RetryPolicy{Attempts: 5, Backoff: 5 * time.Millisecond}
	reqs := []BatchRead{{RKey: mr.Key(), Length: 4}}
	if _, err := c.RDMAReadBatchInto(reqs, nil); err != nil {
		t.Fatal(err)
	}

	// Restart the agent on the same address: the conn's stream is dead,
	// so the next batch must redial and replay transparently.
	a.Close()
	a2, err := Listen(addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer a2.Close()
	mr2 := a2.RegisterMR(StaticSource([]byte{9, 9}), 2)
	res, err := c.RDMAReadBatchInto([]BatchRead{{RKey: mr2.Key(), Length: 2}}, nil)
	if err != nil {
		t.Fatalf("batch after restart: %v", err)
	}
	if res[0].Err != nil || !bytes.Equal(res[0].Data, []byte{9, 9}) {
		t.Fatalf("batch after restart: %+v", res[0])
	}
	if c.Redials == 0 {
		t.Fatal("expected at least one redial")
	}
}

// reply builds a well-formed pipelined reply frame for tests/fuzzing.
func reply(status byte, seq uint32, data []byte) []byte {
	body := make([]byte, 5+len(data))
	body[0] = status
	binary.BigEndian.PutUint32(body[1:], seq)
	copy(body[5:], data)
	return frame(body)
}

func TestCollectBatchRepliesReordered(t *testing.T) {
	var stream []byte
	stream = append(stream, reply(statusOK, 12, []byte{3})...)
	stream = append(stream, reply(statusOK, 10, []byte{1})...)
	stream = append(stream, reply(statusOK, 11, []byte{2})...)
	res, err := new(Conn).collectBatchRepliesInto(bytes.NewReader(stream), 10, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil || len(r.Data) != 1 || r.Data[0] != byte(i+1) {
			t.Fatalf("slot %d mis-attributed: %+v", i, r)
		}
	}
}

func TestCollectBatchRepliesRejectsDesync(t *testing.T) {
	cases := map[string][]byte{
		"unknown seq": append(append([]byte{},
			reply(statusOK, 1, nil)...), reply(statusOK, 7, nil)...),
		"duplicate completion": append(append([]byte{},
			reply(statusOK, 1, nil)...), reply(statusOK, 1, nil)...),
		"short reply":      frame([]byte{statusOK, 0, 0}),
		"truncated stream": reply(statusOK, 1, nil),
	}
	for name, stream := range cases {
		if _, err := new(Conn).collectBatchRepliesInto(bytes.NewReader(stream), 1, 2, nil); err == nil {
			t.Errorf("%s: desynchronized stream accepted", name)
		}
	}
}

// FuzzReadBatch throws arbitrary reply streams at the completion
// matcher. Whatever the bytes say — split, merged, reordered,
// truncated or duplicated completions — the matcher must never panic,
// and when it accepts a stream every slot's result must be traceable
// to a frame in that stream bearing the slot's own seq. A confused
// stream may fail the batch, but a load record can never be
// attributed to the wrong back-end.
func FuzzReadBatch(f *testing.F) {
	f.Add([]byte{}, uint8(2))
	f.Add(reply(statusOK, 1, []byte{42}), uint8(1))
	two := append(append([]byte{},
		reply(statusOK, 2, []byte{200})...),
		reply(statusOK, 1, []byte{100})...)
	f.Add(two, uint8(2)) // reordered
	f.Add(reply(statusBadKey, 1, nil), uint8(1))
	f.Add(reply(statusOK, 9, nil), uint8(3))       // unknown seq
	f.Add(frame([]byte{statusOK, 0, 0}), uint8(1)) // too short for a seq

	f.Fuzz(func(t *testing.T, stream []byte, n uint8) {
		k := int(n%16) + 1
		seqs := make([]uint32, k)
		for i := range seqs {
			seqs[i] = uint32(i + 1)
		}
		res, err := new(Conn).collectBatchRepliesInto(bytes.NewReader(stream), seqs[0], k, nil)
		if err != nil {
			return // rejecting a stream is always acceptable
		}
		if len(res) != k {
			t.Fatalf("accepted stream produced %d results for %d reqs", len(res), k)
		}
		// Independently re-parse the stream's frames and require each
		// slot's result to match a frame carrying that slot's seq.
		frames := make(map[uint32][][]byte)
		r := bytes.NewReader(stream)
		var fr frameReader
		for {
			body, err := fr.next(r)
			if err != nil {
				break
			}
			if len(body) < 5 {
				continue
			}
			seq := binary.BigEndian.Uint32(body[1:5])
			frames[seq] = append(frames[seq], append([]byte(nil), body...)) // body is only valid until the next frame
		}
		for i, got := range res {
			matched := false
			for _, body := range frames[seqs[i]] {
				if got.Err != nil {
					if statusErr(body[0]) == got.Err {
						matched = true
					}
				} else if body[0] == statusOK && bytes.Equal(body[5:], got.Data) {
					matched = true
				}
			}
			if !matched {
				t.Fatalf("slot %d (seq %d): result %+v not traceable to any frame with that seq",
					i, seqs[i], got)
			}
		}
	})
}
