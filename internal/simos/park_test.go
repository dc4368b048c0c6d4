package simos

import (
	"math/rand"
	"testing"

	"rdmamon/internal/sim"
)

// A twin is two nodes in one engine fed the same script. The eager
// node is held unparkable by a task blocked forever in Recv on a port
// nothing sends to (respawned after every restart), so it ticks for
// real; the other parks whenever it is quiescent. Every read of the
// two must agree on every Snapshot field but NrTasks (the blocker).
type twin struct {
	t      *testing.T
	eng    *sim.Engine
	eager  *Node
	parked *Node

	reads, parkedReads, servicedReads int
}

func newTwin(t *testing.T, seed int64) *twin {
	eng := sim.NewEngine(seed)
	tw := &twin{t: t, eng: eng, eager: NewNode(eng, 7, NodeDefaults()), parked: NewNode(eng, 7, NodeDefaults())}
	tw.spawnBlocker()
	return tw
}

func (tw *twin) spawnBlocker() {
	tw.eager.Spawn("blocker", func(tk *Task) {
		tk.Recv(tw.eager.Port("unused"), func(Message) { panic("blocker woke") })
	})
}

// both applies op to the eager node, then to the parked one.
func (tw *twin) both(op func(n *Node)) {
	op(tw.eager)
	op(tw.parked)
}

// read compares the two nodes' kernel statistics as of the current
// position of the engine.
func (tw *twin) read(what string) {
	tw.t.Helper()
	if tw.eager.parked {
		tw.t.Fatalf("%s at %v: the eager twin parked", what, tw.eng.Now())
	}
	tw.reads++
	if tw.parked.parked {
		tw.parkedReads++
		if v := tw.parked.catchUp(); tw.parked.inService(tw.parked.cpus[0], v) {
			tw.servicedReads++
		}
	}
	a, b := tw.eager.K.Snapshot(), tw.parked.K.Snapshot()
	a.NrTasks = b.NrTasks
	if a != b {
		tw.t.Fatalf("%s at %v: snapshots differ\n eager  %+v\n parked %+v", what, tw.eng.Now(), a, b)
	}
	for c := 0; c < tw.eager.NumCPU(); c++ {
		ha, sa := pendingIRQ(tw.eager, c)
		hb, sb := pendingIRQ(tw.parked, c)
		if ha != hb || sa != sb || utilPerMille(tw.eager, c) != utilPerMille(tw.parked, c) ||
			tw.eager.K.CumIRQHard(c) != tw.parked.K.CumIRQHard(c) || tw.eager.K.CumIRQSoft(c) != tw.parked.K.CumIRQSoft(c) {
			tw.t.Fatalf("%s at %v: CPU%d accessors differ", what, tw.eng.Now(), c)
		}
	}
}

// twinLeads are how far ahead of its instant an action is posted: 0
// means scheduled when the script is built (ahead of everything), the
// others straddle a timer interrupt's service (1 µs) and a tick (10 ms).
var twinLeads = []sim.Time{0, 400, 2 * sim.Microsecond, 10*sim.Millisecond - 2*sim.Microsecond, 10*sim.Millisecond + 3*sim.Microsecond}

// twinProgram interprets data as a script, two bytes an action, in the
// FuzzEngineOrder style: the first byte picks the action, the second
// its argument. A cursor walks forward in time; reads land either at
// arbitrary instants or exactly on a tick instant, its interrupt's
// completion, or a nanosecond either side, as tracked from the
// node's phase (reset by every effective restart).
func twinProgram(t *testing.T, seed int64, data []byte) *twin {
	tw := newTwin(t, seed)
	eng := tw.eng
	cfg := tw.parked.Cfg
	var cursor, phase sim.Time
	down := false
	at := func(when sim.Time, lead byte, fn func()) {
		if when < 0 {
			return
		}
		d := twinLeads[int(lead)%len(twinLeads)]
		if d == 0 || when-d < 0 {
			eng.Schedule(when, fn)
			return
		}
		eng.Schedule(when-d, func() { eng.Post(d, fn) })
	}
	nextTick := func() sim.Time {
		k := (cursor - phase + cfg.Tick - 1) / cfg.Tick
		return phase + k*cfg.Tick
	}
	for len(data) >= 2 {
		op, arg := data[0], data[1]
		data = data[2:]
		switch op % 10 {
		case 0, 1:
			cursor += sim.Time(arg)*97*sim.Microsecond + 1
		case 2, 3:
			offs := []sim.Time{0, cfg.TimerIRQCost, cfg.TimerIRQCost - 1, cfg.TimerIRQCost + 1, 1, -1}
			when := nextTick() + sim.Time(arg/8%8)*cfg.Tick + offs[int(arg)%len(offs)]
			at(when, arg/64, func() { tw.read("tick-aligned read") })
		case 4:
			at(cursor+sim.Time(arg)*37*sim.Microsecond, arg, func() { tw.read("read") })
		case 5:
			c1, s, c2 := sim.Time(arg%7+1)*300*sim.Microsecond, sim.Time(arg%5)*2*sim.Millisecond, sim.Time(arg%3)*sim.Millisecond
			at(cursor, arg/32, func() {
				tw.both(func(n *Node) {
					n.Spawn("job", func(tk *Task) {
						tk.Compute(c1, func() { tk.Sleep(s, func() { tk.Compute(c2, tk.Exit) }) })
					})
				})
			})
		case 6:
			at(cursor, arg, func() { tw.both(func(n *Node) { n.RaiseNetIRQ(nil) }) })
		case 7:
			freeze := arg%2 == 0
			at(cursor, arg/2, func() {
				tw.both(func(n *Node) {
					if freeze {
						n.Freeze()
					} else {
						n.Thaw()
					}
				})
			})
		case 8:
			if !down {
				down = true
				at(cursor, arg, func() { tw.both((*Node).Crash) })
				break
			}
			// Restart on a fresh phase: pinned to the cursor so reads can
			// aim at the new tick instants.
			down, phase = false, cursor
			eng.Schedule(cursor, func() {
				tw.both((*Node).Restart)
				tw.spawnBlocker()
			})
		case 9:
			if arg < 8 {
				at(cursor, arg, func() { tw.both((*Node).stop) })
			}
		}
	}
	// Between events: read after RunUntil lands exactly on tick instants
	// and completions.
	end := cursor + 300*sim.Millisecond
	eng.RunUntil(cursor)
	for k := sim.Time(1); k <= 25; k++ {
		base := nextTick() + k*cfg.Tick
		for _, off := range []sim.Time{0, cfg.TimerIRQCost - 1, cfg.TimerIRQCost} {
			eng.RunUntil(base + off)
			tw.read("read between events")
		}
	}
	eng.RunUntil(end)
	tw.read("final read")
	return tw
}

// randomTwinScript builds a script in which most actions move the
// cursor or read, with occasional spawns, interrupts, freezes, crashes
// and one late stop at most.
func randomTwinScript(rng *rand.Rand, n int) []byte {
	var data []byte
	for i := 0; i < n; i++ {
		op := byte(rng.Intn(10))
		arg := byte(rng.Intn(256))
		if op == 9 && i < n*9/10 {
			op = 4
		}
		if op == 8 {
			// A crash, and the restart a few milliseconds later.
			data = append(data, 8, arg, 0, byte(rng.Intn(64)), 8, byte(rng.Intn(256)))
			continue
		}
		data = append(data, op, arg)
	}
	return data
}

// TestParkedTwinMatchesEager is the observational-equivalence oracle of
// parked ticks (DESIGN §6): over seeded scripts of spawn, sleep, exit,
// net interrupts, freeze/thaw, crash/restart and stop, a node that
// parks answers every kernel-statistics read exactly as a node that
// ticks, including reads at a tick instant and at its interrupt's
// completion posted less and more than 1 µs and one tick ahead.
func TestParkedTwinMatchesEager(t *testing.T) {
	reads, parked, serviced := 0, 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		tw := twinProgram(t, seed, randomTwinScript(rand.New(rand.NewSource(seed)), 400))
		reads, parked, serviced = reads+tw.reads, parked+tw.parkedReads, serviced+tw.servicedReads
	}
	// The oracle must actually have read parked nodes, some of them
	// inside a virtual tick's interrupt service.
	if parked < reads/4 || serviced == 0 {
		t.Fatalf("%d reads, %d of a parked node, %d inside a virtual interrupt: the script exercises too little", reads, parked, serviced)
	}
	t.Logf("%d reads, %d of a parked node, %d inside a virtual interrupt", reads, parked, serviced)
}

func FuzzParkedTwin(f *testing.F) {
	// Reads on and around tick instants of a node that parked at once.
	f.Add([]byte{2, 0, 2, 1, 2, 2, 2, 3, 2, 4, 2, 5, 2, 0x41, 2, 0x81, 2, 0xc1, 3, 0x49})
	// A job, then reads posted a tick ahead; a net interrupt inside the
	// tick's service; a freeze and thaw.
	f.Add([]byte{5, 0x21, 0, 40, 2, 0x89, 6, 0, 0, 3, 7, 2, 0, 9, 7, 1, 2, 0xd1, 4, 77})
	// Crash, restart on a fresh phase, reads of the new ticks, stop.
	f.Add([]byte{0, 30, 8, 0, 0, 17, 8, 0, 2, 0x0a, 2, 0x49, 4, 5, 9, 1, 4, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		twinProgram(t, 1, data)
	})
}

// TestParkedNodeNoEvents pins the mechanism: an idle node, once parked,
// puts no event through the engine for 10 simulated seconds, yet its
// statistics advance as if it ticked: 100 timer interrupts per CPU per
// second, each 1 µs of busy time.
func TestParkedNodeNoEvents(t *testing.T) {
	eng := sim.NewEngine(1)
	n := NewNode(eng, 0, NodeDefaults())
	eng.RunUntil(20 * sim.Millisecond)
	if !n.parked {
		t.Fatal("an idle node did not park")
	}
	before := n.K.Snapshot()
	processed := eng.Processed
	eng.RunFor(10 * sim.Second)
	if d := eng.Processed - processed; d != 0 {
		t.Fatalf("a parked node processed %d events in 10 s, want 0", d)
	}
	after := n.K.Snapshot()
	for c := 0; c < n.NumCPU(); c++ {
		if d := after.CumIRQ[c] - before.CumIRQ[c]; d != 1000 {
			t.Errorf("CPU%d: CumIRQ advanced by %d in 10 s, want 1000", c, d)
		}
		// 10 ticks of 1 µs in the 100 ms window: 0.1 ‰ rounds to 0; the
		// busy time itself is what moved.
		if u := after.UtilPerMille[c]; u != 0 {
			t.Errorf("CPU%d: utilisation %d‰, want 0", c, u)
		}
		if got, want := n.busy(n.cpus[c], n.catchUp()), 1001*n.Cfg.TimerIRQCost; got != want {
			t.Errorf("CPU%d: busy %v, want %v", c, got, want)
		}
	}
}
