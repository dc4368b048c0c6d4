package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Dispatch claims arbitrate which front-end may dispatch where: every
// back-end shard has its own CAS-able claim word in the witness, and a
// front-end must hold the shard's claim to dispatch to the back-ends
// it covers (front-end HA is the one-shard table). The word packs
// owner in the top 16 bits, epoch in the next 16 and a heartbeat stamp
// in the low 32, and is mutated only by one-sided CAS: renew by
// stamp+1, take over by epoch+1, release by zeroing the owner. Anything
// that inspects epochs positionally (e.g. the live transport's fenced
// CAS) relies on this layout.
//
// Each claim also has a descriptive *record* — written one-sided by
// each epoch's winner, CRC-protected, observability only. A torn read
// of the record is detectable and harmless; the word alone decides
// ownership.

// ClaimMagic identifies a claim record ("RMCL").
const ClaimMagic uint32 = 0x524d434c

// ClaimVersion is the current claim record layout version.
const ClaimVersion uint8 = 1

// ClaimRecordSize is the exact encoded size in bytes.
const ClaimRecordSize = 48

// ClaimWordSize is the size of one claim word region: a single
// CAS-able 64-bit value.
const ClaimWordSize = 8

// ClaimVacantOwner is the owner field meaning "unclaimed". Owner IDs
// are 1-based, so a freshly registered all-zero region reads as vacant
// at epoch 0; a released word keeps its epoch (owner zeroed only), so
// the next winner still takes a strictly larger epoch.
const ClaimVacantOwner uint16 = 0

// PackClaimWord builds the 64-bit claim word: owner in the top 16
// bits, epoch in the next 16, heartbeat stamp in the low 32. A holder
// renews by CAS-ing stamp+1 over its own word; a bidder takes over by
// CAS-ing (itself, epoch+1, 0) over the word it last observed; a
// releasing holder CAS-es owner to 0 keeping epoch and stamp.
func PackClaimWord(owner, epoch uint16, stamp uint32) uint64 {
	return uint64(owner)<<48 | uint64(epoch)<<32 | uint64(stamp)
}

// UnpackClaimWord splits a claim word into its fields.
func UnpackClaimWord(w uint64) (owner, epoch uint16, stamp uint32) {
	return uint16(w >> 48), uint16(w >> 32), uint32(w)
}

// ClaimVacant reports whether the word names no owner (the epoch may
// still be nonzero: releases preserve it for monotonicity).
func ClaimVacant(w uint64) bool { return uint16(w>>48) == ClaimVacantOwner }

// WordEpoch extracts a claim word's epoch field (bits 32..47). Fencing
// logic that only needs to compare epochs uses this instead of a full
// unpack.
func WordEpoch(w uint64) uint16 { return uint16(w >> 32) }

// ClaimRecord describes one shard's current claim grant. Owner is
// 1-based (0 means vacant, matching ClaimVacantOwner).
type ClaimRecord struct {
	Shard   uint16
	Owner   uint16
	Epoch   uint16
	Stamp   uint32
	GrantNS int64 // clock at epoch acquisition, ns
	TTLNS   int64 // holder-side validity window per renewal, ns
}

func (r ClaimRecord) String() string {
	return fmt.Sprintf("claim shard=%d owner=%d epoch=%d stamp=%d ttl=%dns",
		r.Shard, r.Owner, r.Epoch, r.Stamp, r.TTLNS)
}

// AppendTo encodes the record into dst (which must have
// ClaimRecordSize capacity from offset 0); dst is returned for
// chaining. Encoding never fails.
func (r ClaimRecord) AppendTo(dst []byte) []byte {
	if cap(dst) < ClaimRecordSize {
		dst = make([]byte, ClaimRecordSize)
	}
	b := dst[:ClaimRecordSize]
	le := binary.LittleEndian
	le.PutUint32(b[0:], ClaimMagic)
	b[4] = ClaimVersion
	b[5] = 0
	le.PutUint16(b[6:], r.Owner)
	le.PutUint16(b[8:], r.Epoch)
	le.PutUint16(b[10:], r.Shard)
	le.PutUint32(b[12:], r.Stamp)
	le.PutUint64(b[16:], uint64(r.GrantNS))
	le.PutUint64(b[24:], uint64(r.TTLNS))
	for i := 32; i < 44; i++ {
		b[i] = 0
	}
	le.PutUint32(b[44:], crc32.ChecksumIEEE(b[:44]))
	return b
}

// Encode returns a freshly allocated encoding of the record.
func (r ClaimRecord) Encode() []byte { return r.AppendTo(nil) }

// DecodeClaim parses and validates a claim record from b. Errors are
// the shared wire decode errors (ErrShort, ErrMagic, ...).
func DecodeClaim(b []byte) (ClaimRecord, error) {
	var r ClaimRecord
	if len(b) < ClaimRecordSize {
		return r, ErrShort
	}
	le := binary.LittleEndian
	if le.Uint32(b[0:]) != ClaimMagic {
		return r, ErrMagic
	}
	if b[4] != ClaimVersion {
		return r, ErrVersion
	}
	if le.Uint32(b[44:]) != crc32.ChecksumIEEE(b[:44]) {
		return r, ErrChecksum
	}
	if b[5] != 0 {
		return r, ErrReserved
	}
	for i := 32; i < 44; i++ {
		if b[i] != 0 {
			return r, ErrReserved
		}
	}
	r.Owner = le.Uint16(b[6:])
	r.Epoch = le.Uint16(b[8:])
	r.Shard = le.Uint16(b[10:])
	r.Stamp = le.Uint32(b[12:])
	r.GrantNS = int64(le.Uint64(b[16:]))
	r.TTLNS = int64(le.Uint64(b[24:]))
	return r, nil
}
