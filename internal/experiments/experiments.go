// Package experiments regenerates every table and figure of the
// paper's evaluation (§5). Each experiment builds its own simulated
// cluster(s), runs the paper's workload, and returns both typed data
// and a rendered text table with the same rows/series the paper
// reports.
//
// Absolute numbers are simulator-calibrated; EXPERIMENTS.md records
// the paper-vs-measured comparison and the shape criteria each
// experiment is expected to satisfy.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Options control an experiment run.
type Options struct {
	Seed int64
	// Quick shrinks durations for use in tests; the shapes remain,
	// the tails get noisier.
	Quick bool
	// Sequential disables the per-point goroutine fan-out (each sweep
	// point is an independent simulation engine, so parallel is safe
	// and is the default).
	Sequential bool
	// Seeds is how many seeds chaos, ha, aa and scenario runs sweep (0:
	// 5, or a scenario file's own count); other experiments ignore it.
	Seeds int

	// Backends, Shards and Batch pin the scale experiment to a single
	// configuration instead of its built-in sweep (0 = sweep; other
	// experiments ignore them). Backends also pins the hybrid
	// experiment's fleet size.
	Backends int
	Shards   int
	Batch    int

	// PushThreshold, PeriodMin and PeriodMax override the hybrid
	// experiment's controller knobs (zero = its defaults; other
	// experiments ignore them). Periods are in probe periods T.
	PushThreshold float64
	PeriodMin     int
	PeriodMax     int

	// FrontEnds is the active-active experiment's replica count
	// (default 4, minimum 2); ClaimShards and ClaimTTLMS override its
	// claim-table size and claim TTL (zero = the cluster defaults:
	// one shard per back-end, TTL derived from the poll interval).
	// Other experiments ignore all three.
	FrontEnds   int
	ClaimShards int
	ClaimTTLMS  int

	// MaxConns, DialsPerSec and PoolIdleMS size the pooled scale-out
	// run's connection budget, dial-rate budget and idle-conn GC age.
	// Setting any of them (or Backends >= 1024) switches -exp scale
	// from the sweep to the pooled scale-out with fault phases; zero
	// means fleet-derived defaults.
	MaxConns    int
	DialsPerSec int
	PoolIdleMS  int
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 20060925 // CLUSTER 2006 conference date
	}
	return o.Seed
}

// Result is a rendered experiment outcome.
type Result struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string

	// Failed marks a result that violated its own acceptance criteria
	// (the chaos harness's invariants); rmbench exits non-zero on it.
	Failed bool
}

// Render writes the result as an aligned text table (AlignRows is the
// shared writer every report table goes through).
func (r *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	for _, line := range AlignRows(r.Columns, r.Rows) {
		fmt.Fprintln(w, "  "+line)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// Runner produces one experiment's result.
type Runner func(Options) *Result

var registry = struct {
	sync.Mutex
	m     map[string]Runner
	title map[string]string
}{m: make(map[string]Runner), title: make(map[string]string)}

func register(id, title string, r Runner) {
	registry.Lock()
	defer registry.Unlock()
	registry.m[id] = r
	registry.title[id] = title
}

// IDs returns the registered experiment IDs, sorted.
func IDs() []string {
	registry.Lock()
	defer registry.Unlock()
	ids := make([]string, 0, len(registry.m))
	for id := range registry.m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns an experiment's description.
func Title(id string) string {
	registry.Lock()
	defer registry.Unlock()
	return registry.title[id]
}

// Run executes a registered experiment.
func Run(id string, o Options) (*Result, error) {
	registry.Lock()
	r := registry.m[id]
	registry.Unlock()
	if r == nil {
		return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return r(o), nil
}

// forEach runs fn for i in [0,n), in parallel unless sequential.
func forEach(o Options, n int, fn func(i int)) {
	if o.Sequential || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string {
	return fmt.Sprintf("%+.1f%%", v*100)
}
