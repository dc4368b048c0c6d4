// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in the order they were
// scheduled, so a run with a fixed seed is bit-for-bit reproducible.
// The queue orders runs of same-instant events rather than single
// events, so a fleet whose timers tick in lockstep pays one heap
// operation per instant, not one per event.
// All other simulation packages (simos, simnet, ...) are built on top
// of this engine and inherit its determinism.
package sim

import (
	"fmt"
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

// Millis returns the time as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros returns the time as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Event is a scheduled callback. The zero value is not useful; events
// are created through Engine.Schedule and Engine.After.
type Event struct {
	at  Time
	fn  func()
	seq uint64 // key within at; assigned at every enqueue

	// A run is a list of pending events with one timestamp, ascending
	// in seq. Only its head holds a heap slot; the rest hang off it
	// through next/prev with index == chained.
	next, prev *Event

	// index is the head's position in the heap, chained for a run
	// member behind the head, idle when not queued. It shares a word
	// with recycle so an Event stays in the 48-byte size class.
	index int32

	// recycle marks a node scheduled through Post: nobody holds its
	// handle, so Step returns it to the engine's free list.
	recycle bool
}

const (
	idle    int32 = -1 // not queued
	chained int32 = -2 // queued behind prev, no heap slot
)

// At returns the virtual time the event is (or was) scheduled for.
func (e *Event) At() Time { return e.at }

// Pending reports whether the event is still queued.
func (e *Event) Pending() bool { return e != nil && e.index != idle }

// slot is one heap entry: the head of a run. The (at, seq) key sits
// beside the pointer so a comparison reads two adjacent slots instead
// of following two *Event pointers; seq is unique, so the order is
// total and the fire order does not depend on the shape of the heap.
type slot struct {
	at  Time
	seq uint64
	ev  *Event
}

func (a *slot) before(b *slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of slots: children of i are
// 4i+1..4i+4. A sift moves a hole instead of swapping, so each moved
// slot is written (and its event's index updated) once.
type eventQueue []slot

// up places s at or above position i.
func (q eventQueue) up(i int, s slot) {
	for i > 0 {
		p := (i - 1) / 4
		if !s.before(&q[p]) {
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
func (q eventQueue) down(i int, s slot) {
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
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&s) {
			break
		}
		q[i] = q[m]
		q[i].ev.index = int32(i)
		i = m
	}
	q[i] = s
	s.ev.index = int32(i)
}

func (q *eventQueue) push(s slot) {
	*q = append(*q, slot{})
	q.up(len(*q)-1, s)
}

// remove gives up the slot at position i.
func (q *eventQueue) remove(i int) {
	old := *q
	n := len(old) - 1
	last := old[n]
	old[n] = slot{}
	*q = old[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(&old[(i-1)/4]) {
		q.up(i, last)
	} else {
		q.down(i, last)
	}
}

// Engine is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; run one engine per goroutine.
type Engine struct {
	now   Time
	seq   uint64
	n     int        // pending events: heap slots + chained
	queue eventQueue // one slot per run
	free  []*Event   // fired Post nodes, fn cleared
	rng   *rand.Rand

	// recent holds the last few events enqueued, as candidates for the
	// next one to chain behind; see enqueue for why a stale entry is
	// harmless.
	recent [recentEvents]*Event
	victim int // entry the next miss overwrites

	// Processed counts events executed, for diagnostics and tests.
	Processed uint64
}

// NewEngine returns an engine with its clock at zero and a random
// number stream derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random stream.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Len returns the number of queued events.
func (e *Engine) Len() int { return e.n }

// recentEvents sizes Engine.recent. A timer tick interleaves two
// instants — the IRQ completion a microsecond on and the re-arm a
// period on — so two entries catch a lockstep fleet's ties. Measured
// share of enqueues that chain, at 1/2/4/8 entries: sweep-8192
// 57/94/94/94 %, scaleout-8192 70/98/98/98 %, dispatch-64 7/10/10/10 %.
const recentEvents = 2

// enqueue keys ev with the next sequence number and queues it: behind
// a pending event of the same instant if a recent one is the tail of
// its run, in a heap slot of its own otherwise.
//
// The candidates need no invalidation. ev carries the largest seq in
// existence, so appending it behind any pending event c with
// c.at == at and c.next == nil keeps c's run ascending in seq whatever
// c has been through since it was recorded — a Post node recycled, a
// ticker's or timer's event re-armed, a head or a chained member, its
// old successors fired or cancelled. Only c's state now is read. And since
// the heap compares the current heads' (at, seq), two runs of one
// instant whose sequence numbers interleave still merge in strict
// (at, seq) order: a miss costs a heap slot, never the order.
func (e *Engine) enqueue(ev *Event, at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule nil func")
	}
	e.seq++
	e.n++
	ev.at, ev.fn, ev.seq = at, fn, e.seq
	for i, c := range e.recent {
		if c != nil && c.at == at && c.next == nil && c.index != idle {
			c.next, ev.prev, ev.index = ev, c, chained
			e.recent[i] = ev // the run's new tail
			return
		}
	}
	e.recent[e.victim] = ev
	e.victim = (e.victim + 1) % recentEvents
	e.queue.push(slot{at: at, seq: ev.seq, ev: ev})
}

// dequeue takes a pending event out of the queue. A chained event is
// unlinked; a head hands its slot to its successor, which has the same
// at and a larger seq and so can only sink, or gives the slot up.
func (e *Engine) dequeue(ev *Event) {
	e.n--
	nx := ev.next
	if ev.index == chained {
		ev.prev.next = nx
		if nx != nil {
			nx.prev = ev.prev
		}
		ev.prev = nil
	} else if nx != nil {
		nx.prev = nil
		e.queue.down(int(ev.index), slot{at: nx.at, seq: nx.seq, ev: nx})
	} else {
		e.queue.remove(int(ev.index))
	}
	ev.next = nil
	ev.index = idle
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
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{index: idle, recycle: true}
	}
	e.enqueue(ev, e.now+d, fn)
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
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue[0].ev
	e.dequeue(ev)
	e.now = ev.at
	fn := ev.fn
	ev.fn = nil
	if ev.recycle {
		e.free = append(e.free, ev)
	}
	e.Processed++
	fn()
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the
// clock to exactly t. Events scheduled at t fire; later events remain
// queued.
func (e *Engine) RunUntil(t Time) {
	for len(e.queue) > 0 && e.queue[0].at <= t {
		e.Step()
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
