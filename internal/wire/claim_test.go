package wire

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

func TestClaimWordRoundTrip(t *testing.T) {
	cases := []struct {
		owner, epoch uint16
		stamp        uint32
	}{
		{0, 0, 0},
		{1, 1, 0},
		{4, 65535, 4294967295},
		{65535, 32768, 7},
	}
	for _, c := range cases {
		w := PackClaimWord(c.owner, c.epoch, c.stamp)
		o, e, s := UnpackClaimWord(w)
		if o != c.owner || e != c.epoch || s != c.stamp {
			t.Fatalf("round trip (%d,%d,%d) -> %x -> (%d,%d,%d)",
				c.owner, c.epoch, c.stamp, w, o, e, s)
		}
		if got := WordEpoch(w); got != c.epoch {
			t.Fatalf("WordEpoch(%x) = %d, want %d", w, got, c.epoch)
		}
		if ClaimVacant(w) != (c.owner == 0) {
			t.Fatalf("ClaimVacant(%x) wrong for owner %d", w, c.owner)
		}
	}
}

func TestClaimRecordRoundTrip(t *testing.T) {
	r := ClaimRecord{Shard: 5, Owner: 2, Epoch: 17, Stamp: 301, GrantNS: 4e9, TTLNS: 3e8}
	enc := r.Encode()
	if len(enc) != ClaimRecordSize {
		t.Fatalf("encoded size %d, want %d", len(enc), ClaimRecordSize)
	}
	got, err := DecodeClaim(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("round trip mismatch: %+v != %+v", got, r)
	}
}

func TestClaimRecordRejectsCorruption(t *testing.T) {
	r := ClaimRecord{Shard: 1, Owner: 1, Epoch: 1, Stamp: 1}
	enc := r.Encode()
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		if _, err := DecodeClaim(bad); err == nil {
			t.Fatalf("corrupting byte %d went undetected", i)
		}
	}
	if _, err := DecodeClaim(enc[:ClaimRecordSize-1]); err != ErrShort {
		t.Fatalf("short buffer: got %v, want ErrShort", err)
	}
}

// HA's lease is shard 0 of a one-shard claim table: the tests below
// pin the word and record it publishes.

func TestLeaseWordPackUnpack(t *testing.T) {
	cases := []struct {
		holder, epoch uint16
		hb            uint32
	}{
		{0, 0, 0},
		{1, 0, 0},
		{3, 17, 42},
		{0xFFFF, 0xFFFF, 0xFFFFFFFF},
		{2, 0x8000, 1},
	}
	for _, c := range cases {
		w := PackClaimWord(c.holder, c.epoch, c.hb)
		h, e, hb := UnpackClaimWord(w)
		if h != c.holder || e != c.epoch || hb != c.hb {
			t.Fatalf("pack/unpack(%d,%d,%d) = (%d,%d,%d)", c.holder, c.epoch, c.hb, h, e, hb)
		}
		if got := WordEpoch(w); got != c.epoch {
			t.Fatalf("WordEpoch(%x) = %d, want %d", w, got, c.epoch)
		}
	}
	// A freshly registered all-zero region reads as vacant.
	if !ClaimVacant(PackClaimWord(0, 0, 0)) {
		t.Fatal("zero word must be vacant")
	}
	if ClaimVacant(PackClaimWord(1, 0, 0)) {
		t.Fatal("held word must not read vacant")
	}
}

func TestLeaseRecordRoundTrip(t *testing.T) {
	r := ClaimRecord{Shard: 0, Owner: 2, Epoch: 7, Stamp: 1234, GrantNS: 5_000_000_000, TTLNS: 300_000_000}
	enc := r.Encode()
	if len(enc) != ClaimRecordSize {
		t.Fatalf("encoded %d bytes, want %d", len(enc), ClaimRecordSize)
	}
	back, err := DecodeClaim(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back != r {
		t.Fatalf("round trip mismatch: %+v != %+v", back, r)
	}
}

func TestLeaseRecordDecodeErrors(t *testing.T) {
	r := ClaimRecord{Shard: 0, Owner: 1, Epoch: 1, Stamp: 9}
	enc := r.Encode()

	if _, err := DecodeClaim(enc[:ClaimRecordSize-1]); err != ErrShort {
		t.Fatalf("short: %v", err)
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xFF
	if _, err := DecodeClaim(bad); err != ErrMagic {
		t.Fatalf("magic: %v", err)
	}
	bad = append([]byte(nil), enc...)
	bad[4] = ClaimVersion + 1
	if _, err := DecodeClaim(bad); err != ErrVersion {
		t.Fatalf("version: %v", err)
	}
	// Torn write: flip a payload byte, CRC no longer matches.
	bad = append([]byte(nil), enc...)
	bad[12] ^= 0x55
	if _, err := DecodeClaim(bad); err != ErrChecksum {
		t.Fatalf("checksum: %v", err)
	}
	// Nonzero reserved with a recomputed CRC must still be rejected.
	bad = append([]byte(nil), enc...)
	bad[33] = 1
	binary.LittleEndian.PutUint32(bad[44:], crc32.ChecksumIEEE(bad[:44]))
	if _, err := DecodeClaim(bad); err != ErrReserved {
		t.Fatalf("reserved: %v", err)
	}
}

func TestLeaseRecordAppendToReuse(t *testing.T) {
	r := ClaimRecord{Shard: 0, Owner: 3, Epoch: 2, Stamp: 5}
	buf := make([]byte, ClaimRecordSize)
	got := r.AppendTo(buf)
	if &got[0] != &buf[0] {
		t.Fatal("AppendTo must reuse a large-enough buffer")
	}
	if !bytes.Equal(got, r.Encode()) {
		t.Fatal("AppendTo and Encode disagree")
	}
}
