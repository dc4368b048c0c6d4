package wire

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzLoadRecord feeds arbitrary bytes to Decode and, whenever a
// record decodes, checks the encode/decode round trip is lossless and
// the derived accessors stay total. Decode must never panic or accept
// a record whose checksum does not match.
func FuzzLoadRecord(f *testing.F) {
	// Seed with a valid record, a truncation, a magic flip, and junk.
	valid := LoadRecord{
		NumCPU: 2, NodeID: 3, Seq: 9, KTimeNS: 1e9,
		NrRunning: 4, NrTasks: 100,
		MemUsedKB: 1 << 18, MemTotalKB: 1 << 20,
		NetRxBytes: 1 << 30, NetTxBytes: 1 << 29,
		CtxSwitch: 12345, Conns: 77,
	}
	valid.UtilPerMille[0] = 900
	valid.IrqPendingHard[1] = 3
	enc := valid.Encode()
	f.Add(enc)
	f.Add(enc[:RecordSize-1])
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xFF
	f.Add(bad)
	torn := append([]byte(nil), enc...)
	torn[RecordSize/2] ^= 0x55
	f.Add(torn)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xA5}, RecordSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Decode(data)
		if err != nil {
			// Errors must be one of the documented decode failures.
			switch err {
			case ErrShort, ErrMagic, ErrVersion, ErrChecksum, ErrReserved:
			default:
				t.Fatalf("undocumented decode error: %v", err)
			}
			return
		}
		// Accessors must be total on anything Decode accepted.
		_ = rec.UtilMean()
		_ = rec.PendingIRQTotal()
		_ = rec.MemFraction()
		_ = rec.String()

		// Round trip: re-encoding an accepted record reproduces the
		// first RecordSize bytes exactly (trailing input is ignored).
		re := rec.Encode()
		if !bytes.Equal(re, data[:RecordSize]) {
			t.Fatalf("round trip mismatch:\n in=%x\nout=%x", data[:RecordSize], re)
		}
		re2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if re2 != rec {
			t.Fatalf("re-decode mismatch: %+v != %+v", re2, rec)
		}
	})
}

// FuzzLoadRecordFields drives Encode from arbitrary field values: any
// record must encode to exactly RecordSize bytes and survive the round
// trip bit-for-bit.
func FuzzLoadRecordFields(f *testing.F) {
	f.Add(uint8(2), uint16(3), uint32(9), int64(1e9), uint16(4), uint16(100),
		uint64(12345), uint16(77))
	f.Fuzz(func(t *testing.T, ncpu uint8, node uint16, seq uint32, ktime int64,
		run, tasks uint16, ctx uint64, conns uint16) {
		r := LoadRecord{
			NumCPU: ncpu, NodeID: node, Seq: seq, KTimeNS: ktime,
			NrRunning: run, NrTasks: tasks, CtxSwitch: ctx, Conns: conns,
		}
		for i := 0; i < MaxCPU; i++ {
			r.UtilPerMille[i] = uint16(seq) + uint16(i)
		}
		enc := r.Encode()
		if len(enc) != RecordSize {
			t.Fatalf("encoded %d bytes, want %d", len(enc), RecordSize)
		}
		if got := binary.LittleEndian.Uint32(enc[0:]); got != Magic {
			t.Fatalf("magic = %#x", got)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if back != r {
			t.Fatalf("round trip mismatch: %+v != %+v", back, r)
		}
	})
}

// FuzzPushRecord mirrors FuzzLoadRecord for the pushed delta record:
// DecodePush must never panic, never accept a bad checksum (outer or
// embedded), and accepted records must round-trip bit-for-bit.
func FuzzPushRecord(f *testing.F) {
	inner := LoadRecord{
		NumCPU: 4, NodeID: 7, Seq: 42, KTimeNS: 3e9,
		NrRunning: 2, NrTasks: 80, MemUsedKB: 1 << 17, MemTotalKB: 1 << 20,
		Conns: 12,
	}
	inner.UtilPerMille[0] = 550
	valid := PushRecord{PushSeq: 9, PushedNS: 31e8, Load: inner}
	enc := valid.Encode()
	f.Add(enc)
	f.Add(enc[:PushRecordSize-1])
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xFF
	f.Add(bad)
	torn := append([]byte(nil), enc...)
	torn[PushRecordSize/2] ^= 0x55
	f.Add(torn)
	innerTorn := append([]byte(nil), enc...)
	innerTorn[20+RecordSize/2] ^= 0x55
	f.Add(innerTorn)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xA5}, PushRecordSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodePush(data)
		if err != nil {
			switch err {
			case ErrShort, ErrMagic, ErrVersion, ErrChecksum, ErrReserved:
			default:
				t.Fatalf("undocumented decode error: %v", err)
			}
			return
		}
		_ = rec.String()
		re := rec.Encode()
		if !bytes.Equal(re, data[:PushRecordSize]) {
			t.Fatalf("round trip mismatch:\n in=%x\nout=%x", data[:PushRecordSize], re)
		}
		re2, err := DecodePush(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if re2 != rec {
			t.Fatalf("re-decode mismatch: %+v != %+v", re2, rec)
		}
	})
}

// FuzzHistoryRing feeds arbitrary bytes to DecodeRingInto and, for any
// accepted ring, runs the seqlock differential: a mid-write snapshot
// (odd seq, or header/trailer mismatch) must decode as ErrTorn — the
// retry signal — while the completed write must decode cleanly with
// the new sample at the head. Decode must never panic and never
// accept a ring whose header CRC or slot CRCs do not match.
func FuzzHistoryRing(f *testing.F) {
	h := NewHistoryRing(4, 7)
	for i := uint32(1); i <= 6; i++ {
		rec := ringSample(i)
		h.Push(&rec)
	}
	enc := append([]byte(nil), h.Bytes()...)
	f.Add(enc)
	f.Add(enc[:len(enc)-1])
	f.Add(enc[:HistHeaderSize])
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xFF
	f.Add(bad)
	tornSlot := append([]byte(nil), enc...)
	tornSlot[HistHeaderSize+RecordSize/2] ^= 0x55
	f.Add(tornSlot)
	midWrite := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint64(midWrite[16:], 13) // odd seq
	f.Add(midWrite)
	f.Add(NewHistoryRing(1, 0).Bytes())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xA5}, RingSize(2)))

	f.Fuzz(func(t *testing.T, data []byte) {
		var v RingView
		if err := DecodeRingInto(&v, data); err != nil {
			switch err {
			case ErrShort, ErrMagic, ErrVersion, ErrChecksum, ErrReserved,
				ErrTorn, ErrRingK, ErrRingHead:
			default:
				t.Fatalf("undocumented ring decode error: %v", err)
			}
			if v.Count != 0 {
				t.Fatalf("failed decode left %d records in the view", v.Count)
			}
			return
		}
		if v.Count > v.K || v.K < 1 || v.K > MaxRingSlots {
			t.Fatalf("inconsistent view: count=%d k=%d", v.Count, v.K)
		}
		var v2 RingView
		if err := DecodeRingInto(&v2, data); err != nil || v2 != v {
			t.Fatalf("re-decode diverged: %v", err)
		}

		// Differential, phase 1 — tear the accepted ring the way a
		// racing writer would (seq bumped odd before touching a slot):
		// the reader must see ErrTorn, its retry signal.
		le := binary.LittleEndian
		k := v.K
		tr := HistHeaderSize + k*RecordSize
		buf := append([]byte(nil), data[:RingSize(k)]...)
		seq := le.Uint64(buf[16:])
		le.PutUint64(buf[16:], seq+1)
		le.PutUint32(buf[tr+8:], crc32.ChecksumIEEE(buf[:HistHeaderSize]))
		if err := DecodeRingInto(&v2, buf); err != ErrTorn {
			t.Fatalf("mid-write ring decoded as %v, want ErrTorn", err)
		}

		// Phase 2 — complete the write: new sample in the next slot,
		// head advanced, seq even again, echo + CRC restored. The
		// retried read must now succeed and surface the new sample.
		rec := ringSample(uint32(len(data)))
		rec.NodeID = v.NodeID
		slot := int(v.Pushes % uint64(k))
		off := HistHeaderSize + slot*RecordSize
		rec.AppendTo(buf[off : off : off+RecordSize])
		le.PutUint32(buf[12:], uint32(slot))
		le.PutUint64(buf[16:], seq+2)
		le.PutUint64(buf[24:], v.Pushes+1)
		le.PutUint64(buf[tr:], seq+2)
		le.PutUint32(buf[tr+8:], crc32.ChecksumIEEE(buf[:HistHeaderSize]))
		if err := DecodeRingInto(&v2, buf); err != nil {
			t.Fatalf("completed write failed to decode: %v", err)
		}
		if v2.Newest() != rec {
			t.Fatalf("retry after write lost the new sample")
		}
		wantCount := v.Count + 1
		if wantCount > k {
			wantCount = k
		}
		if v2.Count != wantCount {
			t.Fatalf("count after write = %d, want %d", v2.Count, wantCount)
		}
	})
}

// FuzzClaimWord checks the claim word's packing both ways: any
// (owner, epoch, stamp) survives PackClaimWord then UnpackClaimWord,
// any word survives the reverse, and WordEpoch and ClaimVacant agree
// with UnpackClaimWord — the fields the fencing helpers read are the
// fields the claim machines wrote.
func FuzzClaimWord(f *testing.F) {
	f.Add(uint16(2), uint16(7), uint32(99), uint64(0))
	f.Add(uint16(0), uint16(0), uint32(0), ^uint64(0))
	f.Add(uint16(0xFFFF), uint16(0x8000), uint32(1), PackClaimWord(0, 5, 3))
	f.Fuzz(func(t *testing.T, owner, epoch uint16, stamp uint32, w uint64) {
		if o, e, s := UnpackClaimWord(PackClaimWord(owner, epoch, stamp)); o != owner || e != epoch || s != stamp {
			t.Fatalf("(%d,%d,%d) packed and unpacked to (%d,%d,%d)", owner, epoch, stamp, o, e, s)
		}
		o, e, s := UnpackClaimWord(w)
		if PackClaimWord(o, e, s) != w {
			t.Fatalf("word %#x unpacked and repacked to %#x", w, PackClaimWord(o, e, s))
		}
		if WordEpoch(w) != e {
			t.Fatalf("WordEpoch(%#x) = %d, UnpackClaimWord says %d", w, WordEpoch(w), e)
		}
		if ClaimVacant(w) != (o == ClaimVacantOwner) {
			t.Fatalf("ClaimVacant(%#x) = %v for owner %d", w, ClaimVacant(w), o)
		}
	})
}

// FuzzClaimRecord feeds arbitrary bytes to the claim word's region
// decoding, the way a one-sided READ of a shard's claim region is
// consumed: a read shorter than ClaimWordSize carries no word, and
// otherwise the leading ClaimWordSize bytes are the little-endian word.
// Whatever the word, its fields must agree with what the fencing
// helpers read, and writing it back must reproduce the region's bytes.
func FuzzClaimRecord(f *testing.F) {
	addClaimRegionSeeds(f, PackClaimWord(2, 7, 99))
	f.Fuzz(checkClaimRegion)
}

// FuzzLeaseRecord is FuzzClaimRecord seeded from HA's lease: the word
// of shard 0 of a one-shard claim table, held by a standby that has
// taken over once.
func FuzzLeaseRecord(f *testing.F) {
	addClaimRegionSeeds(f, PackClaimWord(2, 1, 0))
	f.Fuzz(checkClaimRegion)
}

// addClaimRegionSeeds seeds a claim-region fuzzer with valid, short,
// flipped-owner, torn, empty and garbage region contents derived from
// the word w.
func addClaimRegionSeeds(f *testing.F, w uint64) {
	enc := binary.LittleEndian.AppendUint64(nil, w)
	f.Add(enc)
	f.Add(enc[:ClaimWordSize-1])
	bad := append([]byte(nil), enc...)
	bad[ClaimWordSize-1] ^= 0xFF
	f.Add(bad)
	torn := append([]byte(nil), enc...)
	torn[ClaimWordSize/2] ^= 0x55
	f.Add(torn)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xA5}, ClaimWordSize))
}

func checkClaimRegion(t *testing.T, data []byte) {
	if len(data) < ClaimWordSize {
		return
	}
	w := binary.LittleEndian.Uint64(data)
	o, e, s := UnpackClaimWord(w)
	if PackClaimWord(o, e, s) != w {
		t.Fatalf("word %#x unpacked and repacked to %#x", w, PackClaimWord(o, e, s))
	}
	if WordEpoch(w) != e {
		t.Fatalf("WordEpoch(%#x) = %d, UnpackClaimWord says %d", w, WordEpoch(w), e)
	}
	if ClaimVacant(w) != (o == ClaimVacantOwner) {
		t.Fatalf("ClaimVacant(%#x) = %v for owner %d", w, ClaimVacant(w), o)
	}
	if re := binary.LittleEndian.AppendUint64(nil, w); !bytes.Equal(re, data[:ClaimWordSize]) {
		t.Fatalf("region round trip mismatch:\n in=%x\nout=%x", data[:ClaimWordSize], re)
	}
}
