package wire

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
)

func ringSample(seq uint32) LoadRecord {
	r := LoadRecord{
		NumCPU: 2, NodeID: 5, Seq: seq, KTimeNS: int64(seq) * 1e7,
		NrRunning: uint16(seq % 7), NrTasks: 50, Conns: uint16(seq % 13),
		MemUsedKB: 1 << 17, MemTotalKB: 1 << 20,
	}
	r.UtilPerMille[0] = uint16(100 * seq % 1000)
	return r
}

func TestHistoryRingRoundTrip(t *testing.T) {
	const k = 4
	h := NewHistoryRing(k, 5)
	if h.Size() != RingSize(k) {
		t.Fatalf("ring size %d, want %d", h.Size(), RingSize(k))
	}
	var v RingView

	// Empty ring decodes to zero samples.
	if err := DecodeRingInto(&v, h.Bytes()); err != nil {
		t.Fatalf("empty ring: %v", err)
	}
	if v.Count != 0 || v.K != k || v.NodeID != 5 {
		t.Fatalf("empty view = %+v", v)
	}

	// Push past a wrap and check newest-first ordering each time.
	for i := uint32(1); i <= 11; i++ {
		rec := ringSample(i)
		h.Push(&rec)
		if err := DecodeRingInto(&v, h.Bytes()); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		want := int(i)
		if want > k {
			want = k
		}
		if v.Count != want {
			t.Fatalf("push %d: count %d, want %d", i, v.Count, want)
		}
		for j := 0; j < v.Count; j++ {
			if got, wantRec := v.Records[j], ringSample(i-uint32(j)); got != wantRec {
				t.Fatalf("push %d slot %d: got seq %d, want seq %d", i, j, got.Seq, wantRec.Seq)
			}
		}
		if v.Newest().Seq != i {
			t.Fatalf("push %d: newest seq %d", i, v.Newest().Seq)
		}
	}
	if h.pushes != 11 || v.Pushes != 11 {
		t.Fatalf("push counters: writer %d, view %d", h.pushes, v.Pushes)
	}
}

func TestHistoryRingEpoch(t *testing.T) {
	h := NewHistoryRing(2, 9)
	rec := ringSample(1)
	h.Push(&rec)
	h.BumpEpoch()
	var v RingView
	if err := DecodeRingInto(&v, h.Bytes()); err != nil {
		t.Fatalf("post-epoch decode: %v", err)
	}
	if v.Epoch != 1 {
		t.Fatalf("epoch %d, want 1", v.Epoch)
	}
	if v.Count != 1 || v.Newest().Seq != 1 {
		t.Fatalf("epoch bump disturbed samples: %+v", v)
	}
}

// TestHistoryRingTorn crafts the states a reader can snapshot while
// the writer is mid-update and checks each is reported as ErrTorn, not
// silently decoded and not confused with corruption.
func TestHistoryRingTorn(t *testing.T) {
	h := NewHistoryRing(3, 1)
	for i := uint32(1); i <= 5; i++ {
		rec := ringSample(i)
		h.Push(&rec)
	}
	le := binary.LittleEndian
	tr := HistHeaderSize + 3*RecordSize

	// Odd seq in the header: write in progress.
	torn := append([]byte(nil), h.Bytes()...)
	seq := le.Uint64(torn[16:])
	le.PutUint64(torn[16:], seq+1)
	le.PutUint64(torn[tr:], seq+1)
	le.PutUint32(torn[tr+8:], crc32.ChecksumIEEE(torn[:HistHeaderSize]))
	if err := DecodeRingInto(new(RingView), torn); err != ErrTorn {
		t.Fatalf("odd seq: err = %v, want ErrTorn", err)
	}

	// Header/trailer seq mismatch: snapshot straddled an update.
	torn = append(torn[:0], h.Bytes()...)
	le.PutUint64(torn[tr:], seq-2)
	if err := DecodeRingInto(new(RingView), torn); err != ErrTorn {
		t.Fatalf("echo mismatch: err = %v, want ErrTorn", err)
	}

	// A half-written slot with quiescent seq words is corruption, and
	// the slot's own CRC catches it.
	torn = append(torn[:0], h.Bytes()...)
	torn[HistHeaderSize+RecordSize/2] ^= 0x55
	err := DecodeRingInto(new(RingView), torn)
	if err != ErrChecksum && err != ErrMagic {
		t.Fatalf("corrupt slot: err = %v, want checksum/magic", err)
	}
}

func TestHistoryRingDecodeZeroAlloc(t *testing.T) {
	h := NewHistoryRing(8, 3)
	for i := uint32(1); i <= 20; i++ {
		rec := ringSample(i)
		h.Push(&rec)
	}
	var v RingView
	buf := h.Bytes()
	allocs := testing.AllocsPerRun(200, func() {
		if err := DecodeRingInto(&v, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeRingInto allocates %.1f objects/op, want 0", allocs)
	}
	rec := ringSample(99)
	allocs = testing.AllocsPerRun(200, func() { h.Push(&rec) })
	if allocs != 0 {
		t.Fatalf("Push allocates %.1f objects/op, want 0", allocs)
	}
	var lr LoadRecord
	one := v.Records[0].Encode()
	allocs = testing.AllocsPerRun(200, func() {
		if err := DecodeInto(&lr, one); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeInto allocates %.1f objects/op, want 0", allocs)
	}
}
