package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one closed interval recorded around a call into a layer.
// Spans stay in memory and are written once, at exit.
type span struct {
	name  string
	tid   int // 0 is the harness; clients are 1..n
	start time.Duration
	dur   time.Duration
}

// tracer collects spans for the traced run. A nil tracer records
// nothing, so untraced runs pay only a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name string, tid int, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name, tid, start.Sub(t.t0), dur})
	t.mu.Unlock()
}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string, tid int) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.add(name, tid, start, time.Since(start)) }
}

// writeChrome writes the spans in Chrome trace-event format
// (chrome://tracing, Perfetto): complete events, microsecond times.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{s.name, "X", float64(s.start) / 1e3, float64(s.dur) / 1e3, 1, s.tid}
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// seam counts the calls through one public function field the
// benchmark wrapped, and times one call in every `every`. Timing every
// call of a function the simulator invokes a million times a second
// would cost more than the function; the busy estimate scales the
// timed calls' mean to the full count.
type seam struct {
	every uint64
	calls atomic.Uint64
	timed atomic.Uint64
	ns    atomic.Int64
}

// enter counts a call and reports whether this one is to be timed.
func (s *seam) enter() bool { return s.calls.Add(1)%s.every == 0 }

func (s *seam) exit(start time.Time) {
	s.ns.Add(int64(time.Since(start)))
	s.timed.Add(1)
}

// busy is the estimated total time spent inside the seam.
func (s *seam) busy() time.Duration {
	timed := s.timed.Load()
	if timed == 0 {
		return 0
	}
	return time.Duration(float64(s.ns.Load()) * float64(s.calls.Load()) / float64(timed))
}

func (s *seam) how() string {
	if s.every == 1 {
		return "measured"
	}
	return fmt.Sprintf("sampled 1/%d", s.every)
}

// row is one line of a workload's breakdown table.
type row struct {
	Layer string  `json:"layer"`
	Calls uint64  `json:"calls"`
	BusyS float64 `json:"busy_s"`
	Share float64 `json:"share"`
	How   string  `json:"how"` // measured | sampled 1/n | estimated | remainder
}

// breakdown is a workload's per-layer table. Rows sum to WallS: the
// last row, "unattributed", is the remainder, and is negative when the
// estimated rows overshoot.
type breakdown struct {
	WallS float64 `json:"wall_s"`
	Rows  []row   `json:"rows"`
}

func newBreakdown(wall time.Duration) *breakdown { return &breakdown{WallS: wall.Seconds()} }

func (b *breakdown) add(layer string, calls uint64, busy time.Duration, how string) {
	if busy < 0 {
		busy = 0
	}
	b.Rows = append(b.Rows, row{Layer: layer, Calls: calls, BusyS: busy.Seconds(), How: how})
}

// estimate adds a row for a layer with no outside seam: count × the
// layers pass's unit cost in nanoseconds.
func (b *breakdown) estimate(layer string, count uint64, unitNS float64) {
	b.add(layer, count, time.Duration(float64(count)*unitNS), "estimated")
}

// close appends the unattributed remainder and fills in the shares.
func (b *breakdown) close() {
	rest := b.WallS
	for _, r := range b.Rows {
		rest -= r.BusyS
	}
	b.Rows = append(b.Rows, row{Layer: "unattributed", BusyS: rest, How: "remainder"})
	for i := range b.Rows {
		if b.WallS > 0 {
			b.Rows[i].Share = b.Rows[i].BusyS / b.WallS
		}
	}
}

// share sums the shares of every row of one layer ("core" matches
// "core" and "core.latest").
func (b *breakdown) share(layer string) float64 {
	var s float64
	for _, r := range b.Rows {
		if r.Layer == layer || strings.HasPrefix(r.Layer, layer+".") {
			s += r.Share
		}
	}
	return s
}

func (b *breakdown) print(w io.Writer) {
	fmt.Fprintf(w, "  %-28s %12s %12s %8s  %s\n", "layer", "calls", "busy_s", "share", "how")
	for _, r := range b.Rows {
		fmt.Fprintf(w, "  %-28s %12d %12.4f %7.1f%%  %s\n", r.Layer, r.Calls, r.BusyS, 100*r.Share, r.How)
	}
	fmt.Fprintf(w, "  %-28s %12s %12.4f %7.1f%%\n", "total (measured wall)", "", b.WallS, 100.0)
}
