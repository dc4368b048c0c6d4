package livemon

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdmamon/internal/core"
	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

// claimTestCfg uses short real-time windows: check every 10ms, trust
// for 30ms (the TTL, three check periods), take an orphan after 60ms of
// silence. Deadlines below are generous multiples so a loaded CI
// machine does not flake.
func claimTestCfg() core.ClaimConfig {
	return core.ClaimConfig{
		CheckEvery:  sim.Time(10 * time.Millisecond),
		ExpireAfter: sim.Time(60 * time.Millisecond),
	}
}

func startWitness(t *testing.T, shards int) *Agent {
	t.Helper()
	a, err := StartAgent(Config{
		Scheme:     core.RDMASync,
		NodeID:     1,
		Provider:   synthetic(2),
		HostClaims: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

func dialClaims(t *testing.T, addr string, me uint16, owners int, cfg core.ClaimConfig) *ClaimClient {
	t.Helper()
	l, err := DialClaims(addr, me, owners, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// shard reads one claim machine's holdership, epoch and counters under
// the client's lock.
func shard(l *ClaimClient, s int) (held bool, epoch uint16, deposals uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.table.Claims[s]
	return c.Held(), c.Epoch(), c.Deposals
}

// valid reports whether the client may dispatch to shard now.
func valid(l *ClaimClient, s int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.table.Valid(s, l.now())
}

// claimWord is shard s's claim word on a witness agent.
func claimWord(a *Agent, s int) uint64 {
	a.cvault.mu.Lock()
	defer a.cvault.mu.Unlock()
	return binary.LittleEndian.Uint64(a.cvault.words[s])
}

// TestLiveLeaseHandoff drives HA — a one-shard table, every front-end
// home — over real TCP: FE1 acquires the vacant word at epoch 1, FE2
// joins and stays a standby, FE1 stalls (Pause — a frozen process),
// FE2 takes over a new epoch after ExpireAfter, and the thawed FE1 is
// fenced by its failed renewal CAS instead of ever believing itself
// primary again.
func TestLiveLeaseHandoff(t *testing.T) {
	leakCheck(t)
	w := startWitness(t, 1)
	fe1 := dialClaims(t, w.Addr(), 1, 0, claimTestCfg())

	waitFor(t, 5*time.Second, func() bool { return valid(fe1, 0) }, "FE1 to acquire the vacant word")
	if _, epoch, _ := shard(fe1, 0); epoch != 1 {
		t.Fatalf("first epoch = %d, want 1", epoch)
	}
	if owner, epoch, _ := wire.UnpackClaimWord(claimWord(w, 0)); owner != 1 || epoch != 1 {
		t.Fatalf("witness word names owner %d epoch %d, want 1/1", owner, epoch)
	}

	fe2 := dialClaims(t, w.Addr(), 2, 0, claimTestCfg())
	// FE2 must settle as a standby while FE1 keeps renewing.
	time.Sleep(150 * time.Millisecond)
	if held, _, _ := shard(fe2, 0); held || valid(fe2, 0) {
		t.Fatal("FE2 grabbed a held word")
	}
	if !valid(fe1, 0) {
		t.Fatal("FE1 lost a claim nobody contested")
	}

	// FE1 stalls: validity lapses on its own, FE2 takes over.
	fe1.pause()
	waitFor(t, 5*time.Second, func() bool { return valid(fe2, 0) }, "FE2 to take over from the stalled FE1")
	if _, epoch, _ := shard(fe2, 0); epoch != 2 {
		t.Fatalf("takeover epoch = %d, want 2", epoch)
	}
	if valid(fe1, 0) {
		t.Fatal("stalled FE1 still claims validity after FE2's takeover")
	}

	// FE1 thaws: its renewal CAS hits epoch 2 and fences it.
	fe1.resume()
	waitFor(t, 5*time.Second, func() bool {
		held, _, deposals := shard(fe1, 0)
		_, _, fenced := fe1.Errors()
		return !held && deposals == 1 && fenced == 1
	}, "thawed FE1 to be fenced")
	if valid(fe1, 0) {
		t.Fatal("fenced FE1 claims validity")
	}
	if !valid(fe2, 0) {
		t.Fatal("FE2 lost the claim to the fenced FE1")
	}
}

// TestDialClaimsRejectsVacantOwner: owner 0 is the vacant word's owner,
// so a front-end with that id would bid as if the word were free and
// every rival would take it at once. DialClaims refuses it before
// dialing.
func TestDialClaimsRejectsVacantOwner(t *testing.T) {
	leakCheck(t)
	w := startWitness(t, 1)
	if l, err := DialClaims(w.Addr(), wire.ClaimVacantOwner, 0, claimTestCfg()); err == nil {
		l.Close()
		t.Fatal("DialClaims accepted owner 0")
	}
}

// TestLiveLeaseCloseHandsOff: a front-end that dies outright (Close,
// no release) is timed out by the standby.
func TestLiveLeaseCloseHandsOff(t *testing.T) {
	leakCheck(t)
	w := startWitness(t, 1)
	fe1 := dialClaims(t, w.Addr(), 1, 0, claimTestCfg())
	waitFor(t, 5*time.Second, func() bool { return valid(fe1, 0) }, "FE1 to acquire")
	fe1.Close()

	fe2 := dialClaims(t, w.Addr(), 2, 0, claimTestCfg())
	waitFor(t, 5*time.Second, func() bool { return valid(fe2, 0) }, "FE2 to inherit from the dead FE1")
	if _, epoch, _ := shard(fe2, 0); epoch != 2 {
		t.Fatalf("inherited epoch = %d, want 2", epoch)
	}
}

// TestLiveClaimRoundOneReadDoorbell pins the live round's read economy:
// a front-end reads every word it does not hold in one pipelined batch
// per round, never one read per shard. FE1 holds the whole four-shard
// table and so reads nothing; every read the witness serves after that
// is FE2's, and each FE2 round adds exactly its four unheld words to
// BatchedReads.
func TestLiveClaimRoundOneReadDoorbell(t *testing.T) {
	leakCheck(t)
	const shards = 4
	cfg := claimTestCfg()
	cfg.ExpireAfter = sim.Time(time.Minute) // FE2 never adopts an orphan here
	w := startWitness(t, shards)
	fe1 := dialClaims(t, w.Addr(), 1, 0, cfg)
	waitFor(t, 5*time.Second, func() bool { return fe1.HeldValid() == shards }, "FE1 to hold the whole table")

	reads0, _, _ := w.verbs.Stats()
	batched0 := w.verbs.BatchedReads()
	fe2 := dialClaims(t, w.Addr(), 2, 0, cfg)
	rounds := func() uint64 {
		fe2.mu.Lock()
		defer fe2.mu.Unlock()
		return fe2.table.Rounds
	}
	waitFor(t, 5*time.Second, func() bool { return rounds() >= 5 }, "five FE2 rounds")
	// Close would cut a round's batch in flight, so pause first: no round
	// starts after pause returns, and one already started lands whole.
	fe2.pause()
	waitFor(t, 5*time.Second, func() bool { return w.verbs.BatchedReads()-batched0 == shards*rounds() },
		"the witness to serve each FE2 round's unheld words as one batch")
	fe2.Close()

	reads, _, _ := w.verbs.Stats()
	batched := w.verbs.BatchedReads() - batched0
	if want := shards * rounds(); batched != want {
		t.Fatalf("FE2 ran %d rounds and the witness served %d batched reads, want %d", rounds(), batched, want)
	}
	if single := reads - reads0 - batched; single != 0 {
		t.Fatalf("the witness served %d single reads", single)
	}
	if tk, _, _, _ := fe2.Counters(); tk != 0 || fe2.HeldValid() != 0 {
		t.Fatalf("FE2 took %d shards from a live holder", tk)
	}
}

// liveInterval is one front-end's validity window over one shard
// epoch, on the shared wall clock.
type liveInterval struct {
	fe, shard  int
	epoch      uint16
	start, end time.Time
}

// intervalLog builds per-shard validity intervals from the claim
// machines' transition hooks, so "no shard valid on two front-ends at
// once" is checked over the whole run rather than sampled.
type intervalLog struct {
	mu   sync.Mutex
	all  []*liveInterval
	open map[[2]int]*liveInterval
}

// watch hooks every claim machine of front-end fe. The hooks run under
// the client's lock; installing them under it too keeps the race
// detector honest.
func (g *intervalLog) watch(l *ClaimClient, fe int) {
	at := func(t sim.Time) time.Time { return l.start.Add(time.Duration(t)) }
	closeAt := func(s uint16, now sim.Time) {
		g.mu.Lock()
		defer g.mu.Unlock()
		if iv := g.open[[2]int{fe, int(s)}]; iv != nil {
			if end := at(now); end.Before(iv.end) {
				iv.end = end
			}
			g.open[[2]int{fe, int(s)}] = nil
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.table.Claims {
		c.OnAcquire = func(s, epoch uint16, now, until sim.Time) {
			g.mu.Lock()
			defer g.mu.Unlock()
			iv := &liveInterval{fe: fe, shard: int(s), epoch: epoch, start: at(now), end: at(until)}
			g.open[[2]int{fe, int(s)}] = iv
			g.all = append(g.all, iv)
		}
		c.OnRenew = func(s, _ uint16, _, until sim.Time) {
			g.mu.Lock()
			defer g.mu.Unlock()
			if iv := g.open[[2]int{fe, int(s)}]; iv != nil && at(until).After(iv.end) {
				iv.end = at(until)
			}
		}
		c.OnDepose = func(s, _ uint16, now sim.Time) { closeAt(s, now) }
		c.OnRelease = func(s, _ uint16, now sim.Time) { closeAt(s, now) }
	}
}

func (g *intervalLog) overlap() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, a := range g.all {
		for _, b := range g.all[i+1:] {
			if a.shard == b.shard && a.fe != b.fe && a.start.Before(b.end) && b.start.Before(a.end) {
				return fmt.Errorf("shard %d: fe %d epoch %d and fe %d epoch %d valid at once",
					a.shard, a.fe+1, a.epoch, b.fe+1, b.epoch)
			}
		}
	}
	return nil
}

// TestLiveClaimsPartitionReclaimFenceHandback drives active-active
// over real TCP: three front-ends over six shards converge to the home
// partition (two each); a paused front-end's shards are adopted by the
// survivors within ExpireAfter + VacantGrace + a few checks; resumed,
// it is fenced; after HandbackAfter the foreign holders release and
// the home partition returns — and no shard is ever valid on two
// front-ends at once.
func TestLiveClaimsPartitionReclaimFenceHandback(t *testing.T) {
	leakCheck(t)
	const fes, shards = 3, 6
	cfg := claimTestCfg().WithDefaults(0)
	w := startWitness(t, shards)
	log := &intervalLog{open: make(map[[2]int]*liveInterval)}
	cls := make([]*ClaimClient, fes)
	for i := range cls {
		cls[i] = dialClaims(t, w.Addr(), uint16(i+1), fes, cfg)
		log.watch(cls[i], i)
	}
	owner := func(s int) int {
		o, _, _ := wire.UnpackClaimWord(claimWord(w, s))
		return int(o)
	}
	homePartition := func() bool {
		for s := 0; s < shards; s++ {
			if home := s % fes; owner(s) != home+1 || !valid(cls[home], s) {
				return false
			}
		}
		for _, c := range cls {
			if c.HeldValid() != shards/fes {
				return false
			}
		}
		return true
	}
	waitFor(t, 5*time.Second, homePartition, "convergence to the home partition")

	// Pause front-end 1 (home of shards 0 and 3): survivors adopt both.
	victim := cls[0]
	victim.pause()
	paused := time.Now()
	adopted := func() bool {
		for s := 0; s < shards; s += fes {
			if o := owner(s); o < 2 || !valid(cls[o-1], s) {
				return false
			}
		}
		return true
	}
	waitFor(t, 5*time.Second, adopted, "survivors to adopt the paused front-end's shards")
	bound := time.Duration(cfg.ExpireAfter + cfg.VacantGrace() + 4*cfg.CheckEvery)
	t.Logf("adopted after %v (protocol bound %v)", time.Since(paused), bound)
	if victim.HeldValid() != 0 {
		t.Fatal("paused front-end still valid on adopted shards")
	}

	// Resume: its stale renewals lose against the new epochs.
	victim.resume()
	waitFor(t, 5*time.Second, func() bool {
		_, _, fenced := victim.Errors()
		return fenced >= 2
	}, "the resumed front-end to be fenced on both shards")

	// The adopters hand back after HandbackAfter; home bids at once.
	waitFor(t, 5*time.Second, homePartition, "handback to the home partition")
	handbacks := uint64(0)
	for _, c := range cls[1:] {
		_, _, _, hb := c.Counters()
		handbacks += hb
	}
	if handbacks < 2 {
		t.Fatalf("survivors handed back %d shards, want >= 2", handbacks)
	}
	for _, c := range cls {
		c.Close()
	}
	if err := log.overlap(); err != nil {
		t.Fatal(err)
	}
}

// replyDropProxy relays one front-end's connection to the witness and,
// once armed, swallows the next reply frame and closes both sides: the
// request was applied, the initiator never learns it and must redial
// and replay (the tcpverbs redial test's dropProxy, armed on demand).
// Once stalled, it swallows every reply and keeps the connection open:
// a target that accepts and never replies.
type replyDropProxy struct {
	ln      net.Listener
	target  string
	armed   atomic.Bool
	dropped atomic.Bool
	stalled atomic.Bool
	wg      sync.WaitGroup
}

func newReplyDropProxy(t *testing.T, target string) *replyDropProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &replyDropProxy{ln: ln, target: target}
	p.wg.Add(1)
	go p.acceptLoop()
	t.Cleanup(func() {
		ln.Close()
		p.wg.Wait()
	})
	return p
}

func (p *replyDropProxy) Addr() string { return p.ln.Addr().String() }

func (p *replyDropProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.serve(c)
	}
}

func (p *replyDropProxy) serve(client net.Conn) {
	defer p.wg.Done()
	upstream, err := net.Dial("tcp", p.target)
	if err != nil {
		client.Close()
		return
	}
	var once sync.Once
	closeBoth := func() { once.Do(func() { client.Close(); upstream.Close() }) }
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer closeBoth()
		// Hide the *net.TCPConn types from io.Copy: a spliced copy parks
		// pipes in the runtime's pool, which leakCheck counts as leaked
		// fds.
		io.Copy(struct{ io.Writer }{upstream}, struct{ io.Reader }{client})
	}()
	defer closeBoth()
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(upstream, hdr[:]); err != nil {
			return
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(upstream, body); err != nil {
			return
		}
		if p.armed.CompareAndSwap(true, false) {
			p.dropped.Store(true)
			return
		}
		if p.stalled.Load() {
			continue
		}
		if _, err := client.Write(append(hdr[:], body...)); err != nil {
			return
		}
	}
}

// TestLiveLeaseRenewSurvivesLostReply is the regression test for the
// self-deposal a plain CompareSwap renewal suffers: the primary's
// renewal is applied at the witness but its reply is lost, the
// connection redials and replays the CAS, and the replay observes the
// primary's own new word. CompareSwapFenced recognizes its own applied
// bid; a plain CompareSwap reports prev != compare, deposing the
// primary and leaving nobody primary for a whole ExpireAfter.
func TestLiveLeaseRenewSurvivesLostReply(t *testing.T) {
	leakCheck(t)
	w := startWitness(t, 1)
	proxy := newReplyDropProxy(t, w.Addr())
	fe := dialClaims(t, proxy.Addr(), 1, 0, claimTestCfg())
	waitFor(t, 5*time.Second, func() bool {
		_, rn, _, _ := fe.Counters()
		return rn > 0
	}, "FE1 to acquire and renew")

	// FE1 holds the only shard, so it only renews: the next reply is a
	// renewal's.
	proxy.armed.Store(true)
	waitFor(t, 5*time.Second, proxy.dropped.Load, "the proxy to drop a renewal reply")
	_, renewals, _, _ := fe.Counters()
	waitFor(t, 5*time.Second, func() bool {
		_, rn, _, _ := fe.Counters()
		return rn >= renewals+5 && valid(fe, 0)
	}, "FE1 to keep renewing after the redial")
	held, epoch, deposals := shard(fe, 0)
	if deposals != 0 || !held {
		t.Fatalf("lost renewal reply deposed the primary: held=%v deposals=%d", held, deposals)
	}
	if epoch != 1 {
		t.Fatalf("epoch moved to %d, want 1", epoch)
	}
	if o, e, _ := wire.UnpackClaimWord(claimWord(w, 0)); o != 1 || e != 1 {
		t.Fatalf("witness word names owner %d epoch %d, want 1/1", o, e)
	}
}
