package core

import (
	"bytes"
	"fmt"
	"testing"

	"rdmamon/internal/connpool"
	"rdmamon/internal/metrics"
	"rdmamon/internal/sim"
	"rdmamon/internal/simos"
	"rdmamon/internal/wire"
)

// hookDMA re-registers a's region behind a source that hands every
// DMA's bytes to hook at the remote DMA instant: the hook may act then
// (bounce a listener) or return other bytes (a torn snapshot). Probers
// ask the agent for RKey() on every read, so they read the hooked
// region from the next post on.
func hookDMA(a *Agent, hook func([]byte) []byte) {
	a.nic.Deregister(a.mr)
	src := a.mrSrc
	a.mr = a.nic.RegisterMR(func() []byte { return hook(src()) }, a.mrLen)
}

// tear returns a copy of a ring snapshot whose trailing seq echo no
// longer matches its header: what a reader sees when the DMA catches
// the writer mid-update.
func tear(b []byte) []byte {
	t := append([]byte(nil), b...)
	t[wire.HistHeaderSize+int(t[5])*wire.RecordSize]++
	return t
}

// readVictim is the back-end whose reads the read-path tests hook: the
// second of four, so under Batch: 4 its read is a middle slot of the
// shard's doorbell batch, and under Batch: 1 a solo read.
const readVictim = 2

// servedLog records what the victim's prober serves from now on.
type servedLog struct {
	seqs       []uint32
	transports []Transport
}

func logServed(p *Prober) *servedLog {
	l := new(servedLog)
	p.OnRecord = func(rec wire.LoadRecord, _ sim.Time) {
		l.seqs = append(l.seqs, rec.Seq)
		l.transports = append(l.transports, p.LastTransport)
	}
	return l
}

func (l *servedLog) has(seq uint32) bool {
	for _, s := range l.seqs {
		if s == seq {
			return true
		}
	}
	return false
}

// startReadFleet starts a four-back-end monitor at batch, pooled when
// pool is set, and runs it until every back-end has been swept (and,
// pooled, every conn is resident).
func startReadFleet(seed int64, batch int, pool bool, cfg AgentConfig) (*fleet, *Monitor) {
	f := newFleet(seed, 4, cfg)
	mc := MonitorConfig{Batch: batch}
	if pool {
		mc.Pool = &connpool.Config{MaxConns: 8}
	}
	m := StartMonitorCfg(f.front, f.fnic, f.agents, 10*sim.Millisecond, mc)
	f.eng.RunUntil(100 * sim.Millisecond)
	return f, m
}

// TestPooledReadFencedMidFlight: a pooled read whose conn is recycled
// between post and completion — the victim's listener bounces at the
// read's DMA instant — is rejected by the epoch fence at completion,
// replayed on a freshly dialed conn, and the replay's record is the one
// served: the rejected read's record never is, and no probe fails. As a
// batch slot and as a solo read alike.
func TestPooledReadFencedMidFlight(t *testing.T) {
	for _, batch := range []int{4, 1} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			f, m := startReadFleet(61, batch, true, AgentConfig{Scheme: RDMASync})
			a, p := f.agents[readVictim-1], m.Probers[readVictim]
			bounces := 1
			var rejected uint32
			hookDMA(a, func(b []byte) []byte {
				if bounces > 0 {
					bounces--
					f.fnic.Fabric().ResetListener(readVictim)
					rejected = a.seq
				}
				return b
			})
			served := logServed(p)
			dials, batches := m.Pool().Stats().Dials, f.fnic.DoorbellBatches
			f.eng.RunFor(50 * sim.Millisecond)
			if bounces != 0 {
				t.Fatal("the victim was never read after the hook")
			}
			if batch > 1 && f.fnic.DoorbellBatches == batches {
				t.Fatal("no doorbell batch posted: the victim was not read as a batch slot")
			}
			if m.FenceRejects != 1 || p.Errors != 0 {
				t.Fatalf("fence rejects %d, victim errors %d; want 1 and 0", m.FenceRejects, p.Errors)
			}
			if got := m.Pool().Stats().Dials - dials; got != 1 {
				t.Fatalf("%d dials after the bounce, want 1 (the replay's)", got)
			}
			if len(served.seqs) == 0 || served.seqs[0] != rejected+1 || served.has(rejected) {
				t.Fatalf("served seqs %v: want the replay's %d first and never the rejected %d",
					served.seqs, rejected+1, rejected)
			}
		})
	}
}

// TestPooledReadRecycledTwice: when the replay's conn is recycled in
// flight too, the slot stops replaying and degrades through
// errConnReset and the failover ladder: one breaker failure, a
// same-cycle socket fallback that serves the record (a third read in
// the slot would have served RDMA), no probe error, and RDMA again on
// the next sweep.
func TestPooledReadRecycledTwice(t *testing.T) {
	for _, batch := range []int{4, 1} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			f, m := startReadFleet(62, batch, true, AgentConfig{Scheme: RDMASync, StandbySocket: true})
			m.SetProbeTimeout(10 * sim.Millisecond)
			m.ArmFailover()
			f.eng.RunFor(50 * sim.Millisecond)
			a, p := f.agents[readVictim-1], m.Probers[readVictim]
			bounces := 2
			var rejected []uint32
			hookDMA(a, func(b []byte) []byte {
				if bounces > 0 {
					bounces--
					f.fnic.Fabric().ResetListener(readVictim)
					rejected = append(rejected, a.seq)
				}
				return b
			})
			served := logServed(p)
			f.eng.RunFor(50 * sim.Millisecond)
			if bounces != 0 {
				t.Fatal("the victim was not read twice after the hook")
			}
			if m.FenceRejects != 2 || p.Errors != 0 {
				t.Fatalf("fence rejects %d, victim errors %d; want 2 and 0", m.FenceRejects, p.Errors)
			}
			if p.Fallbacks != 1 || p.Failover.Tripped() {
				t.Fatalf("fallbacks %d, tripped %v: want one same-cycle fallback, breaker armed",
					p.Fallbacks, p.Failover.Tripped())
			}
			if len(served.transports) < 2 || served.transports[0] != TransportSocket ||
				served.transports[len(served.transports)-1] != TransportRDMA {
				t.Fatalf("served transports %v: want the socket fallback first, RDMA after", served.transports)
			}
			for _, s := range rejected {
				if served.has(s) {
					t.Fatalf("served the rejected record %d (served %v)", s, served.seqs)
				}
			}
		})
	}
}

// TestTornRingReadRetried: a ring snapshot torn once is re-read, the
// re-read's record is served, and the probe's latency sample starts at
// its first post — as a batch slot and as a solo read, pooled or not.
func TestTornRingReadRetried(t *testing.T) {
	for _, batch := range []int{4, 1} {
		for _, pool := range []bool{false, true} {
			t.Run(fmt.Sprintf("batch=%d/pool=%v", batch, pool), func(t *testing.T) {
				cfg := AgentConfig{Scheme: RDMASync, HistoryK: 4, Interval: 10 * sim.Millisecond}
				f, m := startReadFleet(63, batch, pool, cfg)
				a, p := f.agents[readVictim-1], m.Probers[readVictim]
				p.Latency = &metrics.Sample{}
				tears := 1
				hookDMA(a, func(b []byte) []byte {
					if tears > 0 {
						tears--
						return tear(b)
					}
					return b
				})
				served := logServed(p)
				samples := p.Latency.Count()
				f.eng.RunFor(50 * sim.Millisecond)
				if tears != 0 {
					t.Fatal("the victim was never read after the hook")
				}
				if p.TornRetries != 1 || p.Errors != 0 || len(served.seqs) == 0 {
					t.Fatalf("torn retries %d, errors %d, %d records served; want 1, 0 and some",
						p.TornRetries, p.Errors, len(served.seqs))
				}
				// The torn probe's latency runs from its first post, so it
				// covers the torn read and its decode burst as well as the
				// re-read: well above the clean probe after it.
				if lat := p.Latency.Values()[samples:]; len(lat) < 2 || lat[0] < 1.5*lat[1] {
					t.Fatalf("latencies %v µs: want the torn probe's first, over 1.5x the next one's", lat)
				}
			})
		}
	}
}

// TestTornRingReadBound: a ring that tears on every read fails each
// probe after exactly maxTornRetries re-reads and serves nothing — a
// batch slot gets the same bound as a solo read, pooled or not.
func TestTornRingReadBound(t *testing.T) {
	for _, batch := range []int{4, 1} {
		for _, pool := range []bool{false, true} {
			t.Run(fmt.Sprintf("batch=%d/pool=%v", batch, pool), func(t *testing.T) {
				cfg := AgentConfig{Scheme: RDMASync, HistoryK: 4, Interval: 10 * sim.Millisecond}
				f, m := startReadFleet(64, batch, pool, cfg)
				a, p := f.agents[readVictim-1], m.Probers[readVictim]
				hookDMA(a, tear)
				served := logServed(p)
				f.eng.RunFor(50 * sim.Millisecond)
				if p.Errors == 0 || len(served.seqs) != 0 {
					t.Fatalf("%d failed probes, %d records served; want failures only", p.Errors, len(served.seqs))
				}
				if want := uint64(maxTornRetries * p.Errors); p.TornRetries != want {
					t.Fatalf("%d torn re-reads over %d failed probes, want %d (%d each)",
						p.TornRetries, p.Errors, want, maxTornRetries)
				}
			})
		}
	}
}

// TestSweepSlotBuffersOwned: every doorbell slot reads into its own
// buffer of the shard's sweepScratch, the same one sweep after sweep,
// and a solo sweep keeps one buffer, not one per back-end.
func TestSweepSlotBuffersOwned(t *testing.T) {
	for _, batch := range []int{4, 1} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			f, m := startReadFleet(65, batch, false, AgentConfig{Scheme: RDMASync})
			sc := m.shards[0]
			var first []*byte
			for sweep := 0; sweep < 3; sweep++ {
				f.eng.RunFor(5 * sim.Millisecond) // mid-sleep: the last sweep's completions are in sc
				if len(sc.bufs) != batch {
					t.Fatalf("sweep %d: %d slot buffers, want %d", sweep, len(sc.bufs), batch)
				}
				for i, b := range sc.bufs {
					if sweep == 0 {
						first = append(first, &b[0])
					} else if &b[0] != first[i] {
						t.Fatalf("sweep %d: slot %d's buffer was reallocated", sweep, i)
					}
					if batch > 1 && &sc.results[i].Data[0] != &b[0] {
						t.Fatalf("sweep %d: slot %d's completion does not alias its buffer", sweep, i)
					}
					for j := range i {
						if &b[0] == &sc.bufs[j][0] {
							t.Fatalf("slots %d and %d share a buffer", j, i)
						}
					}
				}
				f.eng.RunFor(5 * sim.Millisecond)
			}
		})
	}
}

// TestTornReReadSameSlot: a torn ring snapshot's re-read lands back in
// the buffer of the slot that read it, as a batch slot and as a solo
// read, and the shard grows no buffer for it.
func TestTornReReadSameSlot(t *testing.T) {
	for _, batch := range []int{4, 1} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			cfg := AgentConfig{Scheme: RDMASync, HistoryK: 4, Interval: 10 * sim.Millisecond}
			f, m := startReadFleet(66, batch, false, cfg)
			a, p, sc := f.agents[readVictim-1], m.Probers[readVictim], m.shards[0]
			slot := 0
			if batch > 1 {
				slot = readVictim - 1
			}
			tears := 1
			var reread []byte
			hookDMA(a, func(b []byte) []byte {
				if tears > 0 {
					tears--
					return tear(b)
				}
				reread = append(reread[:0], b...)
				return b
			})
			checked := false
			p.OnRecord = func(wire.LoadRecord, sim.Time) {
				if checked {
					return
				}
				checked = true
				if !bytes.Equal(sc.bufs[slot][:len(reread)], reread) {
					t.Error("the re-read did not land in the slot's buffer")
				}
			}
			f.eng.RunFor(50 * sim.Millisecond)
			if tears != 0 || p.TornRetries != 1 || !checked {
				t.Fatalf("tears left %d, torn retries %d, served %v; want 0, 1 and true", tears, p.TornRetries, checked)
			}
			if len(sc.bufs) != batch {
				t.Fatalf("%d slot buffers after the re-read, want %d", len(sc.bufs), batch)
			}
		})
	}
}

// TestMixedBatchDecodesOwnNode: in one doorbell batch over back-ends
// exporting rings and single records alike, every completion decodes
// its own node's record. The single-record agents all encode into the
// fabric's one staging buffer, so this holds only because the NIC
// copies it out before the next DMA instant.
func TestMixedBatchDecodesOwnNode(t *testing.T) {
	const n = 6
	f := newFleet(67, 0, AgentConfig{})
	fab := f.fnic.Fabric()
	for i := 1; i <= n; i++ {
		cfg := AgentConfig{Scheme: RDMASync, Interval: 10 * sim.Millisecond}
		if i%2 == 0 {
			cfg.HistoryK = 4
		}
		nd := simos.NewNode(f.eng, i, simos.NodeDefaults())
		f.agents = append(f.agents, StartAgent(nd, fab.Attach(nd), cfg))
	}
	m := StartMonitorCfg(f.front, f.fnic, f.agents, 10*sim.Millisecond, MonitorConfig{Batch: n})
	served := make(map[int]int)
	for _, a := range f.agents {
		p := m.Probers[a.node.ID]
		p.OnRecord = func(rec wire.LoadRecord, _ sim.Time) {
			served[p.Backend]++
			if int(rec.NodeID) != p.Backend {
				t.Fatalf("back-end %d's probe decoded node %d's record", p.Backend, rec.NodeID)
			}
			if rec.Seq == 0 || rec.Seq > a.seq || a.RingK() == 0 && rec.Seq != a.seq {
				t.Fatalf("back-end %d: decoded seq %d, agent at %d", p.Backend, rec.Seq, a.seq)
			}
		}
	}
	f.eng.RunUntil(200 * sim.Millisecond)
	if f.fnic.DoorbellBatches == 0 || len(m.shards[0].bufs) != n {
		t.Fatalf("%d doorbell batches, %d slot buffers; want some and %d", f.fnic.DoorbellBatches, len(m.shards[0].bufs), n)
	}
	for _, a := range f.agents {
		if served[a.node.ID] < 10 {
			t.Fatalf("back-end %d served %d records in 200 ms, want >= 10", a.node.ID, served[a.node.ID])
		}
	}
}
