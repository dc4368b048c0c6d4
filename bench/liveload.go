package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rdmamon/internal/core"
	"rdmamon/internal/livemon"
	"rdmamon/internal/procfs"
	"rdmamon/internal/tcpverbs"
	"rdmamon/internal/wire"
)

// The live workloads run real tcpverbs traffic over the host's
// loopback interface: no link is crossed, so they measure per-frame
// software cost, not wire latency.

const (
	liveClients = 2 // closed loop, one connection each; at most nproc on the sizing host
	mixedRings  = 32
	mixedRingK  = 16
	mixedWrites = 4
	// traceEvery is how many client iterations pass between two that
	// are recorded as spans with their child verbs.
	traceEvery = 64
)

// liveStats is one client goroutine's record of the measured window.
type liveStats struct {
	sliceOps []uint64 // verbs completed per slice of the window
	all      hist
	iters    uint64
	ops      uint64 // verbs completed
	failed   uint64
	bad      string // first correctness violation
	// children sums the sampled iterations' time per child span.
	children    map[string]time.Duration
	childCalls  map[string]uint64
	sampled     uint64
	sampledNS   time.Duration // the sampled iterations' own durations
	tracedIters uint64        // iterations run while tracing was on
}

func (s *liveStats) violate(format string, args ...any) {
	s.failed++
	if s.bad == "" {
		s.bad = fmt.Sprintf(format, args...)
	}
}

// liveClient is one closed-loop client of a live workload.
type liveClient interface {
	// iterate runs one iteration and returns the verbs it completed;
	// child, when non-nil, is told each verb's name and duration.
	iterate(child func(name string, t0 time.Time)) (verbs uint64, err error)
	close()
}

// liveInstance is one built set of agents and connected clients.
type liveInstance struct {
	clients []liveClient
	agents  []interface{ Close() error }
	// tracing turns the agent-side counting timers on.
	tracing *atomic.Bool
	// agentSeams are the agent-side closures wrapped by the benchmark.
	agentSeams map[string]*seam
	// verify runs the workload's end-state checks.
	verify func() error
}

// close stops clients, then agents. It may be called twice.
func (li *liveInstance) close() {
	for _, c := range li.clients {
		c.close()
	}
	for _, a := range li.agents {
		a.Close()
	}
	li.clients, li.agents = nil, nil
}

// runLive drives a live workload: build agents and clients (a build
// ends with a counted warm-up), then let every client loop until the
// wall-clock budget is spent. A traced run has tracing on in every
// other slice of the window.
func runLive(cfg *runConfig, o *outcome, build func() (*liveInstance, error), spanName string) error {
	li, err := timedSetup(cfg, o, build)
	if err != nil {
		return err
	}
	defer li.close()

	sliceDur := cfg.sz.liveSlice
	nSlices := int(cfg.seconds / sliceDur)
	if nSlices < 2 {
		nSlices = 2
	}
	stats := make([]*liveStats, len(li.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for ci, cl := range li.clients {
		st := &liveStats{sliceOps: make([]uint64, nSlices), children: map[string]time.Duration{}, childCalls: map[string]uint64{}}
		stats[ci] = st
		wg.Add(1)
		go func(tid int, cl liveClient) {
			defer wg.Done()
			child := func(name string, t0 time.Time) {
				d := time.Since(t0)
				st.children[name] += d
				st.childCalls[name]++
				cfg.tr.add(name, tid, t0, d)
			}
			t0, lastIdx := start, -1
			for {
				idx := int(t0.Sub(start) / sliceDur)
				if idx >= nSlices {
					return
				}
				traced := cfg.traced && idx%2 == 1
				if idx != lastIdx { // every client flips the agents' timers at the slice boundary
					lastIdx = idx
					li.tracing.Store(traced)
				}
				sample := traced && st.tracedIters%traceEvery == 0
				var verbs uint64
				var err error
				if sample {
					verbs, err = cl.iterate(child)
				} else {
					verbs, err = cl.iterate(nil)
				}
				t1 := time.Now()
				if sample {
					cfg.tr.add(spanName, tid, t0, t1.Sub(t0))
					st.sampled++
					st.sampledNS += t1.Sub(t0)
				}
				st.iters++
				if traced {
					st.tracedIters++
				}
				if err != nil {
					st.violate("%v", err)
					if st.failed > 100 {
						return // a broken connection fails every iteration; stop early
					}
				} else {
					st.ops += verbs
					st.sliceOps[idx] += verbs
					st.all.add(int64(t1.Sub(t0)))
				}
				t0 = t1
			}
		}(ci+1, cl)
	}
	wg.Wait()

	var all hist
	children, childCalls := map[string]time.Duration{}, map[string]uint64{}
	var sampled, tracedIters uint64
	var sampledNS time.Duration
	for _, st := range stats {
		all.merge(&st.all)
		o.attempted += st.ops + st.failed
		o.failed += st.failed
		tracedIters += st.tracedIters
		sampled += st.sampled
		sampledNS += st.sampledNS
		if st.bad != "" {
			o.violate("%s", st.bad)
		}
		for k, d := range st.children {
			children[k] += d
			childCalls[k] += st.childCalls[k]
		}
	}
	if err := li.verify(); err != nil {
		o.violate("%v", err)
	}
	li.close()
	if err := moreSetups(cfg, o, build, (*liveInstance).close); err != nil {
		return err
	}
	for i := 0; i < nSlices; i++ {
		var ops uint64
		for _, st := range stats {
			ops += st.sliceOps[i]
		}
		o.slices = append(o.slices, sliceStat{wall: sliceDur, ops: ops, traced: cfg.traced && i%2 == 1})
	}
	p50, p99 := all.quantile(0.5), all.quantile(0.99)
	prefix := "tcpverbs.iter"
	if spanName == "livemon.fetch" {
		prefix = spanName
	}
	o.counts = map[string]float64{prefix + "_p50_ns": p50, prefix + "_p99_ns": p99}
	o.notes = append(o.notes, fmt.Sprintf("%d clients over loopback TCP (no real link), %d iterations; iteration p25 %.1f p50 %.1f p75 %.1f p90 %.1f p99 %.1f us",
		len(stats), all.n, all.quantile(0.25)/1e3, p50/1e3, all.quantile(0.75)/1e3, all.quantile(0.9)/1e3, p99/1e3))

	if !cfg.traced {
		return nil
	}
	tracedWall, _ := totals(o.pick(true))
	seams := li.agentSeams
	o.table = func(lp *layerPass) *breakdown {
		// The measured wall is client time: one closed loop per client.
		// The sampled iterations say how an iteration divides among its
		// verbs; that division is applied to the whole traced wall.
		wall := tracedWall * time.Duration(len(stats))
		b := newBreakdown(wall)
		if sampled == 0 {
			b.close()
			return b
		}
		perSample := float64(tracedIters) / float64(sampled) // iterations each sample stands for
		stretch := float64(wall) / float64(sampledNS)        // sampled time to traced wall
		agentSide := func(verb string) (busy time.Duration) {
			for name, s := range seams { // these closures run inside the client's verb
				if seamVerb[name] == verb {
					busy += s.busy()
				}
			}
			return busy
		}
		for _, name := range slices.Sorted(maps.Keys(seams)) {
			s := seams[name]
			b.add(name, s.calls.Load(), s.busy(), s.how()+", agent side")
		}
		for _, name := range slices.Sorted(maps.Keys(children)) {
			calls := uint64(float64(childCalls[name]) * perSample)
			busy := time.Duration(float64(children[name])*stretch) - agentSide(name)
			if name != "livemon.fetch" {
				b.add(name, calls, busy, "sampled 1/64")
				continue
			}
			// Fetch is one call from outside; its inside is divided in
			// the proportions the layers pass measured on one client.
			L := lp.out
			units := []struct {
				layer string
				ns    float64
			}{{"tcpverbs", L["tcpverbs.read_ns"]}, {"wire", L["wire.decode_record_ns"]},
				{"livemon", math.Max(0, L["livemon.fetch_overhead_ns"])}}
			var sum float64
			for _, u := range units {
				sum += u.ns
			}
			for _, u := range units {
				b.add(u.layer, calls, time.Duration(float64(busy)*u.ns/sum), "sampled 1/64, split by layers-pass proportions")
			}
		}
		b.close()
		return b
	}
	return nil
}

// seamVerb names the client verb whose duration contains each
// agent-side closure.
var seamVerb = map[string]string{
	"tcpverbs.source": "tcpverbs.read_batch",
	"wire.push_sink":  "tcpverbs.write",
	"procfs.provider": "livemon.fetch",
}

func syntheticProvider() *procfs.Synthetic {
	p := &procfs.Synthetic{}
	p.Set(procfs.Snapshot{NumCPU: 2, NrRunning: 1, NrTasks: 50, UtilPerMille: []int{100, 50},
		MemUsedKB: 1 << 18, MemTotalKB: 1 << 20})
	return p
}

// tracedProvider is the procfs.Provider seam: it times the agent's
// snapshot while tracing is on.
type tracedProvider struct {
	inner   procfs.Provider
	tracing *atomic.Bool
	s       *seam
}

func (p *tracedProvider) Snapshot() (procfs.Snapshot, error) {
	if !p.tracing.Load() || !p.s.enter() {
		return p.inner.Snapshot()
	}
	t0 := time.Now()
	snap, err := p.inner.Snapshot()
	p.s.exit(t0)
	return snap, err
}

// probeClient is live-probe's client: one Fetch per iteration, checked
// for the agent's node id and a strictly increasing sequence number.
type probeClient struct {
	probe   *livemon.Probe
	node    uint16
	lastSeq uint32
}

func (c *probeClient) iterate(child func(string, time.Time)) (uint64, error) {
	var t0 time.Time
	if child != nil {
		t0 = time.Now()
	}
	rec, err := c.probe.Fetch()
	if child != nil {
		child("livemon.fetch", t0)
	}
	if err != nil {
		return 0, err
	}
	if rec.NodeID != c.node || rec.Seq <= c.lastSeq {
		return 0, fmt.Errorf("fetch from node %d: got node %d seq %d after seq %d", c.node, rec.NodeID, rec.Seq, c.lastSeq)
	}
	c.lastSeq = rec.Seq
	return 1, nil
}

func (c *probeClient) close() { c.probe.Close() }

func buildProbe(cfg *runConfig) func() (*liveInstance, error) {
	return func() (*liveInstance, error) {
		li := &liveInstance{tracing: new(atomic.Bool), agentSeams: map[string]*seam{}, verify: func() error { return nil }}
		snap := &seam{every: 1}
		if cfg.traced {
			li.agentSeams["procfs.provider"] = snap
		}
		for i := 0; i < liveClients; i++ {
			node := uint16(i + 1)
			var prov procfs.Provider = syntheticProvider()
			if cfg.traced {
				prov = &tracedProvider{inner: prov, tracing: li.tracing, s: snap}
			}
			a, err := livemon.StartAgent(livemon.Config{Scheme: core.RDMASync, Addr: "127.0.0.1:0",
				NodeID: node, Provider: prov})
			if err != nil {
				li.close()
				return nil, err
			}
			li.agents = append(li.agents, a)
			p, err := livemon.Dial(a.Addr())
			if err != nil {
				li.close()
				return nil, err
			}
			p.SeedJitter(cfg.seed + int64(i))
			li.clients = append(li.clients, &probeClient{probe: p, node: node})
		}
		return li, warmUp(li, cfg.sz.liveWarmIters)
	}
}

// warmUp runs n iterations on every client concurrently, so set-up
// ends with connections, buffers and the runtime's pollers warm.
func warmUp(li *liveInstance, n int) error {
	errs := make([]error, len(li.clients))
	var wg sync.WaitGroup
	for i, cl := range li.clients {
		wg.Add(1)
		go func(i int, cl liveClient) {
			defer wg.Done()
			for k := 0; k < n && errs[i] == nil; k++ {
				_, errs[i] = cl.iterate(nil)
			}
		}(i, cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			li.close()
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// mixedRegions are the regions one live-mixed agent serves: 32
// readable history rings that take a fresh sample as each read is
// served (what livemon's sync schemes do), one writable push slot
// whose sink decodes every landed record, and one claim word.
type mixedRegions struct {
	mu       sync.Mutex
	node     uint16
	rings    []*wire.HistoryRing
	ringKeys []uint32
	sample   wire.LoadRecord
	slot     []byte
	slotKey  uint32
	word     []byte
	wordKey  uint32
	landed   uint64
	torn     uint64

	// tracing, when set and true, turns on the counting timers around
	// the ring sources (srcT) and the push sink (sinkT).
	tracing     *atomic.Bool
	srcT, sinkT *seam
}

func newMixedRegions(a *tcpverbs.Agent, node uint16, tracing *atomic.Bool, srcT, sinkT *seam) *mixedRegions {
	m := &mixedRegions{node: node, tracing: tracing, srcT: srcT, sinkT: sinkT,
		sample: wire.LoadRecord{NumCPU: 2, NodeID: node, NrTasks: 50, MemTotalKB: 1 << 20},
		slot:   make([]byte, wire.PushRecordSize), word: make([]byte, wire.ClaimWordSize)}
	for i := 0; i < mixedRings; i++ {
		ring := wire.NewHistoryRing(mixedRingK, node)
		for k := 0; k < mixedRingK; k++ {
			m.sample.Seq++
			ring.Push(&m.sample)
		}
		m.rings = append(m.rings, ring)
		src := func() []byte {
			m.mu.Lock()
			defer m.mu.Unlock()
			m.sample.Seq++
			m.sample.KTimeNS += 1000
			ring.Push(&m.sample)
			return append([]byte(nil), ring.Bytes()...)
		}
		m.ringKeys = append(m.ringKeys, a.RegisterMR(m.timedSource(src), ring.Size()).Key())
	}
	m.slotKey = a.RegisterWritableMR(func() []byte {
		m.mu.Lock()
		defer m.mu.Unlock()
		return append([]byte(nil), m.slot...)
	}, len(m.slot), func(b []byte) {
		timing := m.timing() && m.sinkT.enter()
		var t0 time.Time
		if timing {
			t0 = time.Now()
		}
		rec, err := wire.DecodePush(b)
		m.mu.Lock()
		if err != nil || rec.Load.NodeID != m.node {
			m.torn++
		} else {
			copy(m.slot, b)
			m.landed++
		}
		m.mu.Unlock()
		if timing {
			m.sinkT.exit(t0)
		}
	}).Key()
	m.wordKey = a.RegisterWritableMR(func() []byte {
		m.mu.Lock()
		defer m.mu.Unlock()
		return append([]byte(nil), m.word...)
	}, len(m.word), func(b []byte) {
		m.mu.Lock()
		copy(m.word, b)
		m.mu.Unlock()
	}).Key()
	return m
}

func (m *mixedRegions) timing() bool { return m.tracing != nil && m.tracing.Load() }

// timedSource wraps a region source with the agent-side counting timer.
func (m *mixedRegions) timedSource(src tcpverbs.Source) tcpverbs.Source {
	return func() []byte {
		if !m.timing() || !m.srcT.enter() {
			return src()
		}
		t0 := time.Now()
		b := src()
		m.srcT.exit(t0)
		return b
	}
}

// mixedClient is live-mixed's client. One iteration is a pipelined
// batch of 32 ring reads, each decoded; four writes of an encoded push
// record; and one fenced compare-and-swap renewing the claim word.
type mixedClient struct {
	conn    *tcpverbs.Conn
	m       *mixedRegions
	owner   uint16
	reqs    []tcpverbs.BatchRead
	results []tcpverbs.BatchResult
	view    wire.RingView
	lastSeq []uint32 // newest sequence number seen per ring
	push    wire.PushRecord
	pushBuf []byte
	word    uint64 // the claim word as this client last installed it
	stamp   uint32
}

func newMixedClient(conn *tcpverbs.Conn, m *mixedRegions, owner uint16) *mixedClient {
	c := &mixedClient{conn: conn, m: m, owner: owner, lastSeq: make([]uint32, mixedRings),
		push: wire.PushRecord{Load: wire.LoadRecord{NumCPU: 2, NodeID: m.node}}}
	for _, k := range m.ringKeys {
		c.reqs = append(c.reqs, tcpverbs.BatchRead{RKey: k, Length: wire.RingSize(mixedRingK)})
	}
	return c
}

func (c *mixedClient) readBatch() error {
	res, err := c.conn.RDMAReadBatchInto(c.reqs, c.results)
	if err != nil {
		return err
	}
	c.results = res
	return nil
}

// decodeRings decodes and checks every ring of the last batch.
func (c *mixedClient) decodeRings() error {
	for i, r := range c.results {
		if r.Err != nil {
			return fmt.Errorf("ring %d: %w", i, r.Err)
		}
		if err := wire.DecodeRingInto(&c.view, r.Data); err != nil {
			return fmt.Errorf("ring %d: %w", i, err)
		}
		newest := c.view.Records[0]
		if c.view.NodeID != c.m.node || newest.NodeID != c.m.node || newest.Seq <= c.lastSeq[i] {
			return fmt.Errorf("ring %d of node %d: got node %d seq %d after seq %d",
				i, c.m.node, newest.NodeID, newest.Seq, c.lastSeq[i])
		}
		for k := 1; k < c.view.Count; k++ {
			if c.view.Records[k].Seq >= c.view.Records[k-1].Seq {
				return fmt.Errorf("ring %d: sequence not decreasing from newest at slot %d", i, k)
			}
		}
		c.lastSeq[i] = newest.Seq
	}
	return nil
}

func (c *mixedClient) write() error {
	c.push.PushSeq++
	c.push.PushedNS += 1000
	c.push.Load.Seq++
	c.pushBuf = c.push.AppendTo(c.pushBuf[:0])
	return c.conn.RDMAWrite(c.m.slotKey, c.pushBuf)
}

// renew moves the claim word one stamp forward and checks the word it
// replaced: this client is the word's only bidder, so anything but its
// own previous value is a lost or duplicated atomic.
func (c *mixedClient) renew() error {
	c.stamp++
	next := wire.PackClaimWord(c.owner, 1, c.stamp)
	prev, err := c.conn.CompareSwapFenced(c.m.wordKey, c.word, next)
	if err != nil {
		return err
	}
	if prev != c.word {
		return fmt.Errorf("claim word: CAS returned %#x, want %#x", prev, c.word)
	}
	c.word = next
	return nil
}

func (c *mixedClient) iterate(child func(string, time.Time)) (uint64, error) {
	step := func(name string, fn func() error) error {
		if child == nil {
			return fn()
		}
		t0 := time.Now()
		err := fn()
		child(name, t0)
		return err
	}
	if err := step("tcpverbs.read_batch", c.readBatch); err != nil {
		return 0, err
	}
	if err := step("wire.decode_ring", c.decodeRings); err != nil {
		return 0, err
	}
	for i := 0; i < mixedWrites; i++ {
		if err := step("tcpverbs.write", c.write); err != nil {
			return 0, err
		}
	}
	if err := step("tcpverbs.cas", c.renew); err != nil {
		return 0, err
	}
	return mixedRings + mixedWrites + 1, nil
}

func (c *mixedClient) close() { c.conn.Close() }

// verify reads the push slot and the claim word back: the last record
// written and the last word installed must be what the agent holds.
func (c *mixedClient) verify() error {
	got, err := c.conn.RDMARead(c.m.slotKey, wire.PushRecordSize)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, c.pushBuf) {
		return fmt.Errorf("node %d: push slot does not hold the last record written", c.m.node)
	}
	w, err := c.conn.RDMARead(c.m.wordKey, wire.ClaimWordSize)
	if err != nil {
		return err
	}
	if binary.LittleEndian.Uint64(w) != c.word {
		return fmt.Errorf("node %d: claim word %#x, want %#x", c.m.node, binary.LittleEndian.Uint64(w), c.word)
	}
	c.m.mu.Lock()
	defer c.m.mu.Unlock()
	if c.m.torn > 0 {
		return fmt.Errorf("node %d: %d pushed records failed to decode", c.m.node, c.m.torn)
	}
	return nil
}

func buildMixed(cfg *runConfig) func() (*liveInstance, error) {
	return func() (*liveInstance, error) {
		li := &liveInstance{tracing: new(atomic.Bool), agentSeams: map[string]*seam{}}
		srcT, sinkT := &seam{every: 1}, &seam{every: 1}
		if cfg.traced {
			li.agentSeams["tcpverbs.source"], li.agentSeams["wire.push_sink"] = srcT, sinkT
		}
		rng := rand.New(rand.NewSource(cfg.seed))
		var clients []*mixedClient
		for i := 0; i < liveClients; i++ {
			a, err := tcpverbs.Listen("127.0.0.1:0")
			if err != nil {
				li.close()
				return nil, err
			}
			li.agents = append(li.agents, a)
			m := newMixedRegions(a, uint16(i+1), li.tracing, srcT, sinkT)
			// The seed sets where each node's sample stream starts.
			m.sample.NrRunning = uint16(rng.Intn(8))
			m.sample.UtilPerMille[0] = uint16(rng.Intn(1000))
			conn, err := tcpverbs.Dial(a.Addr())
			if err != nil {
				li.close()
				return nil, err
			}
			conn.SeedJitter(cfg.seed + int64(i))
			cl := newMixedClient(conn, m, uint16(i+1))
			clients = append(clients, cl)
			li.clients = append(li.clients, cl)
		}
		li.verify = func() error {
			for _, cl := range clients {
				if err := cl.verify(); err != nil {
					return err
				}
			}
			return nil
		}
		return li, warmUp(li, cfg.sz.mixedWarmIters)
	}
}
