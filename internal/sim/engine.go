// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in the order they were
// scheduled, so a run with a fixed seed is bit-for-bit reproducible.
// The queue orders runs of same-instant events rather than single
// events, so a fleet whose timers tick in lockstep pays one queue
// operation per instant, not one per event. Since the clock never runs
// backwards, the queue is a radix heap (Ahuja, Mehlhorn, Orlin and
// Tarjan, 1990): a run waits in the bucket named by the highest bit in
// which its instant differs from the last one fired, so an event due a
// microsecond on is never ordered against timers parked 100 ms out.
// All other simulation packages (simos, simnet, ...) are built on top
// of this engine and inherit its determinism.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// Time is a point in virtual time, in nanoseconds since the start of
// the simulation. It is deliberately distinct from time.Time and
// time.Duration: simulated time never touches the wall clock.
type Time int64

// Convenient duration units expressed as Time deltas.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders a Time using the most natural unit.
func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3gus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.4gms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6gs", float64(t)/float64(Second))
	}
}

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Sequence keys. An event's seq is its enqueue instant in the high
// bits and its rank among that instant's enqueues in the low keyShift
// bits, so ordering by seq is ordering by enqueue order, exactly as a
// plain counter would give, and the key also says when the event was
// enqueued. That is what lets a caller that models periodic work in
// closed form (a parked node's timer tick, simos) rebuild the key an
// event it never enqueued would have had: KeyAt(instant, rank) sorts
// after everything enqueued before that instant and before everything
// enqueued at or after it. Real enqueues take ranks from firstRank on;
// ranks below are KeyAt's.
//
// An instant with more than 2^keyShift−firstRank enqueues spills into
// the keys of the following nanoseconds, and past 2^(64−keyShift) ns
// (about 78 simulated hours) the instant no longer fits: the order
// stays exact either way, only KeyAt keys there lose their meaning.
const (
	keyShift  = 16
	firstRank = 16
)

// KeyAt returns the sequence key of a virtual event enqueued at
// instant at with rank (0 <= rank < 16) ahead of every real enqueue of
// that instant.
func KeyAt(at Time, rank int) uint64 { return uint64(at)<<keyShift | uint64(rank) }

// Event is a scheduled callback. The zero value is not useful; events
// are created through Engine.Schedule and Engine.After.
type Event struct {
	at  Time
	fn  func()
	seq uint64 // key within at; assigned at every enqueue (see KeyAt)

	// A run is a list of pending events with one timestamp, ascending
	// in seq. Only its head has a place in the queue; the rest hang
	// off it through next/prev with index == chained.
	next, prev *Event

	// index is the head's position in its bucket or in the instant
	// heap, chained for a run member behind the head, idle when not
	// queued. It shares a word with recycle so an Event stays in the
	// 48-byte size class.
	index int32

	// recycle marks a node scheduled through Post: nobody holds its
	// handle, so Step returns it to the engine's free list.
	recycle bool
}

const (
	idle    int32 = -1 // not queued
	chained int32 = -2 // queued behind prev, no place of its own
)

// Pending reports whether the event is still queued.
func (e *Event) Pending() bool { return e != nil && e.index != idle }

// slot is one entry of the current instant's heap: a run head with its
// seq beside the pointer, so a sift compares adjacent slots instead of
// following *Event pointers. Every head there is due at the same
// instant, so seq alone orders them.
type slot struct {
	seq uint64
	ev  *Event
}

// instantHeap is a 4-ary min-heap of slots: children of i are
// 4i+1..4i+4. A sift moves a hole instead of swapping, so each moved
// slot is written (and its event's index updated) once.
type instantHeap []slot

// up places s at or above position i.
func (q instantHeap) up(i int, s slot) {
	for i > 0 {
		p := (i - 1) / 4
		if s.seq >= q[p].seq {
			break
		}
		q[i] = q[p]
		q[i].ev.index = int32(i)
		i = p
	}
	q[i] = s
	s.ev.index = int32(i)
}

// down places s at or below position i.
func (q instantHeap) down(i int, s slot) {
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if q[j].seq < q[m].seq {
				m = j
			}
		}
		if q[m].seq >= s.seq {
			break
		}
		q[i] = q[m]
		q[i].ev.index = int32(i)
		i = m
	}
	q[i] = s
	s.ev.index = int32(i)
}

func (q *instantHeap) push(s slot) {
	*q = append(*q, slot{})
	q.up(len(*q)-1, s)
}

// heapify orders a non-empty list as a heap, bottom up.
func (q instantHeap) heapify() {
	for i := (len(q) - 2) / 4; i >= 0; i-- {
		q.down(i, q[i])
	}
}

// remove gives up the slot at position i.
func (q *instantHeap) remove(i int) {
	old := *q
	n := len(old) - 1
	last := old[n]
	old[n] = slot{}
	*q = old[:n]
	if i == n {
		return
	}
	if i > 0 && last.seq < old[(i-1)/4].seq {
		q.up(i, last)
	} else {
		q.down(i, last)
	}
}

// earliest returns the position of the first head of a non-empty
// bucket in (at, seq) order. seq is unique, so the order is total and
// the fire order does not depend on the shape of the queue.
func earliest(q []*Event) int {
	m := 0
	for i, h := range q {
		if f := q[m]; h.at < f.at || h.at == f.at && h.seq < f.seq {
			m = i
		}
	}
	return m
}

// buckets is the number of radix buckets: a pending at is never
// negative, so at^last has at most 63 significant bits.
const buckets = 64

// bucketCap is the initial capacity of each bucket and of the spare.
// NewEngine carves them all from one array, so a bucket that a
// power-of-two boundary of the clock first brings into use, long after
// start, does not allocate.
const bucketCap = 16

// Engine is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; run one engine per goroutine.
type Engine struct {
	now  Time
	seq  uint64
	n    int      // pending events: run heads + chained
	free []*Event // fired Post nodes, fn cleared
	rng  *rand.Rand
	seed int64

	// The queue is a radix heap over the monotone clock: a run's head
	// sits in bucket bits.Len64(at^last), where last is the instant of
	// the last event fired. Bucket 0 is instant, the heads due at last
	// itself, a heap ordered by seq; bucket b > 0 holds, unordered, the
	// heads whose at first differs from last in bit b-1 (buckets[0] is
	// unused). full has bit b set while bucket b is not empty.
	last    Time
	full    uint64
	instant instantHeap
	buckets [buckets][]*Event

	// spare is the largest empty array a drained bucket has handed back
	// (see pop). A bucket that fills up moves into it rather than grow:
	// as the clock crosses each new power of two, a bucket no run has
	// used before fills with everything due past that boundary.
	spare []*Event

	// recent holds the last few events enqueued, as candidates for the
	// next one to chain behind; see enqueue for why a stale entry is
	// harmless.
	recent [recentEvents]*Event
	victim int // entry the next miss overwrites

	// cur is the executing event's seq, 0 between events.
	cur uint64

	// Processed counts events executed, for diagnostics and tests.
	Processed uint64
}

// NewEngine returns an engine with its clock at zero and a random
// number stream derived from seed.
func NewEngine(seed int64) *Engine {
	e := &Engine{rng: rand.New(rand.NewSource(seed)), seed: seed}
	all := make([]*Event, buckets*bucketCap)
	for b := range e.buckets {
		e.buckets[b] = all[b*bucketCap : b*bucketCap : (b+1)*bucketCap]
	}
	e.spare, e.buckets[0] = e.buckets[0], nil // bucket 0 is instant
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random stream.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Seed returns the seed the engine was built with.
func (e *Engine) Seed() int64 { return e.seed }

// Len returns the number of queued events.
func (e *Engine) Len() int { return e.n }

// recentEvents sizes Engine.recent. A timer tick interleaves two
// instants — the IRQ completion a microsecond on and the re-arm a
// period on — so two entries catch a lockstep fleet's ties. Measured
// share of enqueues that chain over a whole 2 s seed-1 bench run, at
// 1/2/4/8 entries: sweep-8192 86/86/86/86 %, scaleout-8192
// 70/98/98/98 %, dispatch-64 7/10/10/10 %.
const recentEvents = 2

// enqueue keys ev with the next sequence number and queues it: behind
// a pending event of the same instant if a recent one is the tail of
// its run, in a slot of its own otherwise.
//
// The candidates need no invalidation. ev carries the largest seq in
// existence, so appending it behind any pending event c with
// c.at == at and c.next == nil keeps c's run ascending in seq whatever
// c has been through since it was recorded — a Post node recycled, a
// ticker's or timer's event re-armed, a head or a chained member, its
// old successors fired or cancelled. Only c's state now is read. And since
// the queue compares the current heads' (at, seq), two runs of one
// instant whose sequence numbers interleave still merge in strict
// (at, seq) order: a miss costs a slot, never the order.
func (e *Engine) enqueue(ev *Event, at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule nil func")
	}
	e.n++
	ev.at, ev.fn, ev.seq = at, fn, e.nextKey()
	for i, c := range e.recent {
		if c != nil && c.at == at && c.next == nil && c.index != idle {
			c.next, ev.prev, ev.index = ev, c, chained
			e.recent[i] = ev // the run's new tail
			return
		}
	}
	e.recent[e.victim] = ev
	e.victim = (e.victim + 1) % recentEvents
	e.push(ev)
}

// bucket returns the radix bucket of a head due at at.
func (e *Engine) bucket(at Time) int { return bits.Len64(uint64(at ^ e.last)) }

// push gives head ev a place in the bucket its at names.
func (e *Engine) push(ev *Event) {
	b := e.bucket(ev.at)
	e.full |= 1 << b
	if b == 0 {
		e.instant.push(slot{seq: ev.seq, ev: ev})
		return
	}
	q := &e.buckets[b]
	if n := len(*q); n == cap(*q) && n < cap(e.spare) {
		old := *q
		*q = append(e.spare, old...)
		clear(old)
		e.spare = old[:0]
	}
	ev.index = int32(len(*q))
	*q = append(*q, ev)
}

// nextKey takes the next sequence key: the current instant's next
// rank, or the successor of the last key when an instant has spilled.
func (e *Engine) nextKey() uint64 {
	k := uint64(e.now)<<keyShift + firstRank
	if k <= e.seq {
		k = e.seq + 1
	}
	e.seq = k
	return k
}

// Reserve takes the sequence key an event enqueued now would get,
// without enqueueing anything: a later PostKeyed or ResumeKeyed with it
// fires exactly where that event would have.
func (e *Engine) Reserve() uint64 { return e.nextKey() }

// current returns the executing event's sequence key. Between events
// (code running after RunUntil, or between Steps) it returns the key of
// the next event due now, or the largest key if none is: such code
// acts after everything that has fired and before everything that has
// not.
func (e *Engine) current() uint64 {
	if e.cur != 0 {
		return e.cur
	}
	if h := e.peek(); h != nil && h.at == e.now {
		return h.seq
	}
	return math.MaxUint64
}

// peek returns the head of the next run to fire, or nil.
func (e *Engine) peek() *Event {
	switch b := bits.TrailingZeros64(e.full); {
	case e.full == 0:
		return nil
	case b == 0:
		return e.instant[0].ev
	default:
		q := e.buckets[b]
		return q[earliest(q)]
	}
}

// Fired reports whether an event keyed (at, seq) would already have
// fired by the current position in the (time, sequence) order.
func (e *Engine) Fired(at Time, seq uint64) bool {
	return at < e.now || at == e.now && seq < e.current()
}

// dequeue takes a pending event out of the queue. A chained event is
// unlinked; a head hands its place to its successor, which has the same
// at, so the same bucket, and a larger seq, so in the instant heap it
// can only sink; or the head gives its place up.
func (e *Engine) dequeue(ev *Event) {
	e.n--
	nx := ev.next
	switch b, i := e.bucket(ev.at), int(ev.index); {
	case ev.index == chained:
		ev.prev.next = nx
		if nx != nil {
			nx.prev = ev.prev
		}
		ev.prev = nil
	case b == 0:
		if nx != nil {
			nx.prev = nil
			e.instant.down(i, slot{seq: nx.seq, ev: nx})
			break
		}
		e.instant.remove(i)
		if len(e.instant) == 0 {
			e.full &^= 1
		}
	default:
		q := e.buckets[b]
		if nx != nil {
			nx.prev = nil
		} else { // the bucket's last head fills the hole
			n := len(q) - 1
			nx = q[n]
			q[n] = nil
			e.buckets[b] = q[:n]
			if n == 0 {
				e.full &^= 1 << b
			}
		}
		if nx != ev {
			q[i], nx.index = nx, int32(i)
		}
	}
	ev.next = nil
	ev.index = idle
}

// pop takes the next event out of the queue if it is due by limit, and
// returns it, or nil. The current instant's heap, when it holds
// anything, holds the next event at its top. Otherwise the next event
// is the first head of the lowest bucket b in use: the clock's last
// instant moves to its at, and every other head of b moves down to the
// bucket that names it now, so a head moves at most 63 times in its
// life; those of the same instant form the new instant heap in one
// O(n) heapify rather than n pushes. The next event itself leaves b
// directly, and its successor, if any, takes a slot in the heap.
func (e *Engine) pop(limit Time) *Event {
	ev := e.peek()
	if ev == nil || ev.at > limit {
		return nil
	}
	b := e.bucket(ev.at)
	if b == 0 {
		e.dequeue(ev)
		return ev
	}
	q := e.buckets[b]
	e.last = ev.at
	for i, h := range q {
		q[i] = nil
		switch {
		case h == ev:
		case h.at == ev.at: // b was the lowest bucket in use: instant is empty
			h.index = int32(len(e.instant))
			e.instant = append(e.instant, slot{seq: h.seq, ev: h})
		default:
			e.push(h)
		}
	}
	if len(e.instant) > 0 {
		e.instant.heapify()
		e.full |= 1
	}
	if cap(q) > cap(e.spare) {
		q, e.spare = e.spare, q[:0]
	}
	e.buckets[b] = q[:0]
	e.full &^= 1 << b
	e.n--
	if nx := ev.next; nx != nil {
		nx.prev = nil
		ev.next = nil
		e.push(nx)
	}
	ev.index = idle
	return ev
}

// Schedule queues fn to run at absolute time at. Scheduling in the past
// (before Now) panics: it would silently reorder causality. The
// returned handle is the caller's for as long as it keeps it: the
// engine never reuses a handle-bearing event.
func (e *Engine) Schedule(at Time, fn func()) *Event {
	ev := &Event{index: idle}
	e.enqueue(ev, at, fn)
	return ev
}

// After queues fn to run d after the current time. Negative d is
// clamped to zero.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, fn)
}

// Post is After without a handle, for events nobody cancels or
// inspects: it takes the same place in the (time, sequence) order, and
// the engine recycles the event node once it has fired, so a
// steady-state caller that passes a pre-bound fn allocates nothing.
func (e *Engine) Post(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.enqueue(e.postNode(), e.now+d, fn)
}

// postNode returns a handle-less event node, recycled if one is free.
func (e *Engine) postNode() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{index: idle, recycle: true}
}

// PostKeyed is Post at absolute time at with a caller-chosen sequence
// key — one from Reserve or KeyAt — instead of the next one, so the
// event takes the place an event enqueued earlier would have. It gets
// a slot of its own: the key may be smaller than those of pending
// events of the same instant, so it cannot join the tail of their run.
func (e *Engine) PostKeyed(at Time, seq uint64, fn func()) {
	e.enqueueKeyed(e.postNode(), at, seq, fn)
}

func (e *Engine) enqueueKeyed(ev *Event, at Time, seq uint64, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule nil func")
	}
	e.n++
	ev.at, ev.fn, ev.seq = at, fn, seq
	e.push(ev)
}

// Cancel removes a pending event. It reports whether the event was
// still pending. Cancelling a fired or already-cancelled event is a
// harmless no-op.
func (e *Engine) Cancel(ev *Event) bool {
	if !ev.Pending() {
		return false
	}
	e.dequeue(ev)
	ev.fn = nil
	return true
}

// Step executes the next event, advancing the clock to its timestamp.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	ev := e.pop(math.MaxInt64)
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// fire runs a popped event, advancing the clock to its timestamp.
func (e *Engine) fire(ev *Event) {
	e.now = ev.at
	fn := ev.fn
	ev.fn = nil
	if ev.recycle {
		e.free = append(e.free, ev)
	}
	e.Processed++
	e.cur = ev.seq
	fn()
	e.cur = 0
}

// run executes events until the queue is empty (tests only:
// simulations run to a deadline with RunUntil or RunFor).
func (e *Engine) run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the
// clock to exactly t. Events scheduled at t fire; later events remain
// queued.
func (e *Engine) RunUntil(t Time) {
	for ev := e.pop(t); ev != nil; ev = e.pop(t) {
		e.fire(ev)
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor executes events for a span d of virtual time from Now.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// Ticker invokes fn every period until Stop is called. The first tick
// fires one period from now. A ticker owns one event and one callback
// for its whole life and re-keys the event on every arm, so ticking
// allocates nothing.
type Ticker struct {
	eng     *Engine
	period  Time
	fn      func()
	ev      Event
	fire    func() // t.tick, bound once
	stopped bool
}

// NewTicker creates and starts a ticker. period must be positive.
func (e *Engine) NewTicker(period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{eng: e, period: period, fn: fn, ev: Event{index: idle}}
	t.fire = t.tick
	t.arm()
	return t
}

func (t *Ticker) arm() { t.eng.enqueue(&t.ev, t.eng.now+t.period, t.fire) }

func (t *Ticker) tick() {
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

// ResumeKeyed restarts a stopped ticker whose next tick is at, keyed
// seq (see PostKeyed); it ticks every period from there.
func (t *Ticker) ResumeKeyed(at Time, seq uint64) {
	if !t.stopped {
		panic("sim: ResumeKeyed on a running ticker")
	}
	t.stopped = false
	t.eng.enqueueKeyed(&t.ev, at, seq, t.fire)
}

// Stop cancels future ticks. Safe to call multiple times.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.eng.Cancel(&t.ev)
}

// Timer is the one-shot sibling of Ticker: it invokes fn once, d after
// each Reset. Like a ticker it owns one event and one callback for its
// whole life and re-keys the event on every arm, so a caller that arms
// the same deadline over and over (a task's burst completion, its
// timeslice, its sleep) allocates nothing per arm.
type Timer struct {
	eng *Engine
	fn  func()
	ev  Event
}

// NewTimer creates an unarmed timer; Reset arms it.
func (e *Engine) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("sim: timer nil func")
	}
	return &Timer{eng: e, fn: fn, ev: Event{index: idle}}
}

// Reset arms the timer to fire d from now, replacing a pending arm. The
// event takes a fresh sequence number — exactly the place in the
// (time, sequence) order After(d, fn) would have taken. Negative d is
// clamped to zero. Reset may be called from inside fn.
func (t *Timer) Reset(d Time) {
	if d < 0 {
		d = 0
	}
	e := t.eng
	e.Cancel(&t.ev)
	e.enqueue(&t.ev, e.now+d, t.fn)
}

// Stop disarms the timer. It reports whether an arm was pending.
func (t *Timer) Stop() bool { return t.eng.Cancel(&t.ev) }

// Pending reports whether the timer is armed and has not fired.
func (t *Timer) Pending() bool { return t.ev.Pending() }
