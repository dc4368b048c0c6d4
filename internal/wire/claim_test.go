package wire

import "testing"

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

// HA's lease is shard 0 of a one-shard claim table: the test below
// pins its word.

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
