package wire

// Dispatch claims arbitrate which front-end may dispatch where: every
// back-end shard has its own CAS-able claim word in the witness, and a
// front-end must hold the shard's claim to dispatch to the back-ends
// it covers (front-end HA is the one-shard table). The word packs
// owner in the top 16 bits, epoch in the next 16 and a heartbeat stamp
// in the low 32, and is mutated only by one-sided CAS: renew by
// stamp+1, take over by epoch+1, release by zeroing the owner. Anything
// that inspects epochs positionally (e.g. the live transport's fenced
// CAS) relies on this layout. The word alone decides ownership.

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
