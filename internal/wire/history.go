package wire

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// The history ring is the e-RDMA-Sync++ memory region: instead of one
// LoadRecord, the agent exports a seqlock-protected ring of the K most
// recent timestamped samples, so a single one-sided read fetches an
// entire recent time-series — the RFP observation that one larger
// remote fetch amortizes far better than K small ones.
//
// Layout (little-endian, RingSize(K) bytes total):
//
//	header (32B): magic u32 | version u8 | K u8 | nodeID u16 |
//	              epoch u32 | head u32 | seq u64 | pushes u64
//	slots:        K × RecordSize packed LoadRecords (each self-CRC'd)
//	trailer (12B): seqEcho u64 | headerCRC u32
//
// Writer discipline (seqlock): seq is bumped odd before any slot or
// header mutation and even after, and the trailing seqEcho is the last
// word written. A reader that snapshots the whole region in one DMA
// sees either a quiescent ring (seq even, echo == seq) or a torn one
// (odd, or echo mismatch) and simply re-reads — no reader/writer
// coordination, which is the property that keeps the agent thread-free.
// pushes counts published samples, so a reader knows how many slots
// are live before the ring first wraps; head is pinned to
// (pushes-1) mod K, making every quiescent encoding canonical.

// HistMagic identifies a history ring ("RHIS").
const HistMagic uint32 = 0x52484953

// HistVersion is the current ring layout version.
const HistVersion uint8 = 1

// Ring layout sizes.
const (
	HistHeaderSize  = 32
	HistTrailerSize = 12
)

// MaxRingSlots bounds K so a decoded view fits a fixed caller-owned
// buffer (RingView) — the reader never allocates per decode.
const MaxRingSlots = 32

// RingSize returns the registered region size for a K-slot ring.
func RingSize(k int) int { return HistHeaderSize + k*RecordSize + HistTrailerSize }

// Ring decode errors (beyond the LoadRecord errors a torn or corrupt
// slot surfaces).
var (
	ErrTorn     = errors.New("wire: torn history ring (writer mid-update, re-read)")
	ErrRingK    = errors.New("wire: ring slot count out of range")
	ErrRingHead = errors.New("wire: ring head beyond slot count")
)

// HistoryRing is the writer side: a fixed buffer the agent publishes
// samples into under the seqlock discipline. Not safe for concurrent
// use; callers on a preemptive runtime (livemon) serialize externally
// and rely on the seq words only for wire-format torn detection.
type HistoryRing struct {
	buf    []byte
	k      int
	nodeID uint16
	epoch  uint32
	seq    uint64 // seqlock word: even when quiescent
	pushes uint64
	head   uint32
}

// NewHistoryRing builds a quiescent K-slot ring for nodeID. K is
// clamped to [1, MaxRingSlots].
func NewHistoryRing(k int, nodeID uint16) *HistoryRing {
	if k < 1 {
		k = 1
	}
	if k > MaxRingSlots {
		k = MaxRingSlots
	}
	h := &HistoryRing{buf: make([]byte, RingSize(k)), k: k, nodeID: nodeID}
	h.writeHeader()
	return h
}

// Bytes returns the live ring buffer — the registration source. The
// contents change on every Push.
func (h *HistoryRing) Bytes() []byte { return h.buf }

// K returns the slot count.
func (h *HistoryRing) K() int { return h.k }

// Size returns the encoded region size.
func (h *HistoryRing) Size() int { return len(h.buf) }

// BumpEpoch advances the ring epoch (agent restart / MR re-pin):
// readers drop cross-epoch trend state instead of computing slopes
// across a discontinuity.
func (h *HistoryRing) BumpEpoch() {
	h.seq++ // odd: write in progress
	h.writeHeader()
	h.epoch++
	h.seq++
	h.writeHeader()
}

// Push publishes one sample into the next slot under the seqlock
// discipline. Zero-allocation: rec is encoded in place.
func (h *HistoryRing) Push(rec *LoadRecord) {
	h.seq++ // odd: tear any read that races the slot write
	h.writeHeader()
	slot := uint32(h.pushes % uint64(h.k))
	off := HistHeaderSize + int(slot)*RecordSize
	rec.AppendTo(h.buf[off : off : off+RecordSize])
	h.pushes++
	h.head = slot
	h.seq++ // even: quiescent again
	h.writeHeader()
}

// writeHeader rewrites the header, trailer echo and header CRC to
// match the struct state.
func (h *HistoryRing) writeHeader() {
	le := binary.LittleEndian
	b := h.buf
	le.PutUint32(b[0:], HistMagic)
	b[4] = HistVersion
	b[5] = uint8(h.k)
	le.PutUint16(b[6:], h.nodeID)
	le.PutUint32(b[8:], h.epoch)
	le.PutUint32(b[12:], h.head)
	le.PutUint64(b[16:], h.seq)
	le.PutUint64(b[24:], h.pushes)
	tr := HistHeaderSize + h.k*RecordSize
	le.PutUint64(b[tr:], h.seq)
	le.PutUint32(b[tr+8:], crc32.ChecksumIEEE(b[:HistHeaderSize]))
}

// RingView is a decoded ring snapshot in caller-owned storage:
// Records[0] is the newest sample, Records[Count-1] the oldest live
// one. Reusing one view across decodes keeps the hot path
// allocation-free.
type RingView struct {
	NodeID uint16
	Epoch  uint32
	K      int
	Count  int
	Pushes uint64
	// Records holds the live samples newest-first in [0, Count).
	Records [MaxRingSlots]LoadRecord
}

// Newest returns the most recent sample (zero record if empty).
func (v *RingView) Newest() LoadRecord {
	if v.Count == 0 {
		return LoadRecord{}
	}
	return v.Records[0]
}

// DecodeRingInto parses and validates a ring snapshot from b into *v
// without allocating. ErrTorn means the writer was mid-update when the
// snapshot was taken — the caller should simply re-read; any other
// error means the bytes are not a ring (or a slot is corrupt). On
// error *v is left with Count == 0.
func DecodeRingInto(v *RingView, b []byte) error {
	*v = RingView{}
	if len(b) < RingSize(1) {
		return ErrShort
	}
	le := binary.LittleEndian
	if le.Uint32(b[0:]) != HistMagic {
		return ErrMagic
	}
	if b[4] != HistVersion {
		return ErrVersion
	}
	k := int(b[5])
	if k < 1 || k > MaxRingSlots {
		return ErrRingK
	}
	if len(b) < RingSize(k) {
		return ErrShort
	}
	tr := HistHeaderSize + k*RecordSize
	if le.Uint32(b[tr+8:]) != crc32.ChecksumIEEE(b[:HistHeaderSize]) {
		return ErrChecksum
	}
	seq := le.Uint64(b[16:])
	if seq%2 == 1 || le.Uint64(b[tr:]) != seq {
		// Writer mid-update: the single-DMA snapshot caught an odd seq
		// or a header/trailer mismatch. Not corruption — retry.
		return ErrTorn
	}
	head := le.Uint32(b[12:])
	pushes := le.Uint64(b[24:])
	count := int(pushes)
	if pushes > uint64(k) {
		count = k
	}
	// head is pinned to the last-written slot, so any quiescent
	// encoding is canonical: a mismatch is corruption, not a race.
	wantHead := uint32(0)
	if pushes > 0 {
		wantHead = uint32((pushes - 1) % uint64(k))
	}
	if head != wantHead {
		return ErrRingHead
	}
	v.NodeID = le.Uint16(b[6:])
	v.Epoch = le.Uint32(b[8:])
	v.K = k
	v.Pushes = pushes
	// Walk backwards from head: newest-first into Records.
	for i := 0; i < count; i++ {
		slot := (int(head) - i + k) % k
		off := HistHeaderSize + slot*RecordSize
		if err := DecodeInto(&v.Records[i], b[off:off+RecordSize]); err != nil {
			*v = RingView{}
			return err
		}
	}
	v.Count = count
	return nil
}
