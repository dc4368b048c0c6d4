package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"rdmamon/internal/core"
	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

// sweepRecordDigest runs the monitoring-only RDMA-Sync sweep (the
// bench's sweep workload at a smaller fleet) for 2 simulated seconds
// and hashes every record the front-end decodes, in arrival order,
// together with its arrival instant. Each record was encoded at a
// back-end's DMA instant, so the digest pins what the kernel looked
// like at every one-sided read.
func sweepRecordDigest(backends int) (digest uint64, records int) {
	c := New(Config{Backends: backends, Scheme: core.RDMASync, Poll: 10 * sim.Millisecond,
		Seed: 1, NoServers: true, MonitorShards: 4, MonitorBatch: 32})
	h := fnv.New64a()
	var buf [wire.RecordSize + 8]byte
	for _, p := range c.Monitor.Probers {
		p.OnRecord = func(rec wire.LoadRecord, at sim.Time) {
			rec.AppendTo(buf[:wire.RecordSize])
			binary.LittleEndian.PutUint64(buf[wire.RecordSize:], uint64(at))
			h.Write(buf[:])
			records++
		}
	}
	c.Run(2 * sim.Second)
	return h.Sum64(), records
}

// TestSweepRecordGoldenDigests pins every DMA-instant record of the
// sweep at 64, 1024 and 8192 back-ends against digests captured before
// idle back-ends parked their timer tick: a parked node must answer every
// read exactly as the ticking node did, including reads that land on
// a tick instant or inside a tick's interrupt service.
func TestSweepRecordGoldenDigests(t *testing.T) {
	for _, g := range []struct {
		backends int
		digest   uint64
		records  int
	}{
		{64, 0xce50ae518add9608, 12736},
		{1024, 0xb6ddf78e4a13aae6, 191488},
		{8192, 0x65a5c498e2f4cb27, 976064},
	} {
		got, n := sweepRecordDigest(g.backends)
		if got != g.digest || n != g.records {
			t.Errorf("%d back-ends: %d records, digest 0x%016x; want %d, golden 0x%016x",
				g.backends, n, got, g.records, g.digest)
		}
	}
}
