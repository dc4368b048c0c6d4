// Package wire defines the load-information record that monitoring
// agents expose and front-end probes consume, together with its fixed
// binary encoding.
//
// The record is what actually sits in a registered memory region: an
// RDMA read returns these bytes, so the encoding must be (a) fixed
// size, so a single read captures a whole record, (b) cheap to encode,
// because RDMA-Sync encodes at DMA time, and (c) self-validating,
// because a reader can race a writer and must detect a torn record —
// hence the trailing CRC.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// MaxCPU is the per-record CPU slot count (matches simos.MaxCPU).
const MaxCPU = 8

// Magic identifies a load record ("RMON").
const Magic uint32 = 0x524d4f4e

// Version is the current record layout version.
const Version uint8 = 1

// RecordSize is the exact encoded size in bytes.
const RecordSize = 120

// Decode errors.
var (
	ErrShort    = errors.New("wire: buffer shorter than a record")
	ErrMagic    = errors.New("wire: bad magic")
	ErrVersion  = errors.New("wire: unsupported record version")
	ErrChecksum = errors.New("wire: checksum mismatch (torn or corrupt record)")
	ErrReserved = errors.New("wire: nonzero reserved field")
)

// LoadRecord is one node's load report. All fields a WebSphere-style
// weighted load index needs are present; the IrqPending fields carry
// the extra kernel detail only the (e-)RDMA-Sync schemes can obtain
// accurately (paper §4, §5.1.4).
type LoadRecord struct {
	NumCPU    uint8
	NodeID    uint16
	Seq       uint32
	KTimeNS   int64 // kernel clock at capture, ns
	NrRunning uint16
	NrTasks   uint16

	UtilPerMille   [MaxCPU]uint16
	IrqPendingHard [MaxCPU]uint16
	IrqPendingSoft [MaxCPU]uint16
	CumIRQ         uint64

	MemUsedKB  uint32
	MemTotalKB uint32
	NetRxBytes uint64
	NetTxBytes uint64
	CtxSwitch  uint64
	Conns      uint16
}

// UtilMean returns mean CPU utilisation in parts per thousand. The
// read-only helpers take a pointer so the per-candidate dispatch path
// (core.Weights.Index) does not copy the record once per helper.
func (r *LoadRecord) UtilMean() int {
	if r.NumCPU == 0 {
		return 0
	}
	s := 0
	for i := 0; i < int(r.NumCPU) && i < MaxCPU; i++ {
		s += int(r.UtilPerMille[i])
	}
	return s / int(r.NumCPU)
}

// PendingIRQTotal returns the summed pending hard+soft interrupts.
func (r *LoadRecord) PendingIRQTotal() int {
	n := 0
	for i := 0; i < int(r.NumCPU) && i < MaxCPU; i++ {
		n += int(r.IrqPendingHard[i]) + int(r.IrqPendingSoft[i])
	}
	return n
}

// MemFraction returns used/total memory in [0,1].
func (r *LoadRecord) MemFraction() float64 {
	if r.MemTotalKB == 0 {
		return 0
	}
	return float64(r.MemUsedKB) / float64(r.MemTotalKB)
}

func (r LoadRecord) String() string {
	return fmt.Sprintf("node%d seq=%d run=%d util=%d‰ conns=%d irq=%d",
		r.NodeID, r.Seq, r.NrRunning, r.UtilMean(), r.Conns, r.PendingIRQTotal())
}

// AppendTo encodes the record into dst (which must have RecordSize
// capacity from offset 0); dst is returned for chaining. Encoding
// never fails. The receiver is a pointer so the DMA-instant encode
// does not copy the record to encode it.
func (r *LoadRecord) AppendTo(dst []byte) []byte {
	if cap(dst) < RecordSize {
		dst = make([]byte, RecordSize)
	}
	b := dst[:RecordSize]
	le := binary.LittleEndian
	le.PutUint32(b[0:], Magic)
	b[4] = Version
	b[5] = r.NumCPU
	le.PutUint16(b[6:], r.NodeID)
	le.PutUint32(b[8:], r.Seq)
	le.PutUint16(b[12:], r.NrRunning)
	le.PutUint16(b[14:], r.NrTasks)
	le.PutUint64(b[16:], uint64(r.KTimeNS))
	off := 24
	for i := 0; i < MaxCPU; i++ {
		le.PutUint16(b[off+2*i:], r.UtilPerMille[i])
	}
	off += 16
	for i := 0; i < MaxCPU; i++ {
		le.PutUint16(b[off+2*i:], r.IrqPendingHard[i])
	}
	off += 16
	for i := 0; i < MaxCPU; i++ {
		le.PutUint16(b[off+2*i:], r.IrqPendingSoft[i])
	}
	off += 16 // = 72
	le.PutUint64(b[72:], r.CumIRQ)
	le.PutUint32(b[80:], r.MemUsedKB)
	le.PutUint32(b[84:], r.MemTotalKB)
	le.PutUint64(b[88:], r.NetRxBytes)
	le.PutUint64(b[96:], r.NetTxBytes)
	le.PutUint64(b[104:], r.CtxSwitch)
	le.PutUint16(b[112:], r.Conns)
	le.PutUint16(b[114:], 0)
	le.PutUint32(b[116:], crc32.ChecksumIEEE(b[:116]))
	return b
}

// Encode returns a freshly allocated encoding of the record.
func (r LoadRecord) Encode() []byte { return r.AppendTo(nil) }

// Decode parses and validates a record from b.
func Decode(b []byte) (LoadRecord, error) {
	var r LoadRecord
	err := DecodeInto(&r, b)
	return r, err
}

// DecodeInto parses and validates a record from b into *r without
// allocating: the probe hot path decodes thousands of records per
// sweep into caller-owned scratch. On error *r is left zeroed.
func DecodeInto(r *LoadRecord, b []byte) error {
	if err := check(b); err != nil {
		*r = LoadRecord{}
		return err
	}
	// Every field is assigned below, so a valid record needs no
	// zeroing first.
	le := binary.LittleEndian
	r.NumCPU = b[5]
	r.NodeID = le.Uint16(b[6:])
	r.Seq = le.Uint32(b[8:])
	r.NrRunning = le.Uint16(b[12:])
	r.NrTasks = le.Uint16(b[14:])
	r.KTimeNS = int64(le.Uint64(b[16:]))
	for i := 0; i < MaxCPU; i++ {
		r.UtilPerMille[i] = le.Uint16(b[24+2*i:])
		r.IrqPendingHard[i] = le.Uint16(b[40+2*i:])
		r.IrqPendingSoft[i] = le.Uint16(b[56+2*i:])
	}
	r.CumIRQ = le.Uint64(b[72:])
	r.MemUsedKB = le.Uint32(b[80:])
	r.MemTotalKB = le.Uint32(b[84:])
	r.NetRxBytes = le.Uint64(b[88:])
	r.NetTxBytes = le.Uint64(b[96:])
	r.CtxSwitch = le.Uint64(b[104:])
	r.Conns = le.Uint16(b[112:])
	return nil
}

// check validates the framing of an encoded record: length, magic,
// version, checksum and the reserved field.
func check(b []byte) error {
	if len(b) < RecordSize {
		return ErrShort
	}
	le := binary.LittleEndian
	if le.Uint32(b[0:]) != Magic {
		return ErrMagic
	}
	if b[4] != Version {
		return ErrVersion
	}
	if le.Uint32(b[116:]) != crc32.ChecksumIEEE(b[:116]) {
		return ErrChecksum
	}
	if le.Uint16(b[114:]) != 0 {
		// Reserved padding must be zero: keeps decode(encode(r))
		// exactly invertible and the reserved space usable later.
		return ErrReserved
	}
	return nil
}
