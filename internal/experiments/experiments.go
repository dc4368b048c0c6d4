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

	"rdmamon/internal/core"
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
	// the scenario file's own count, 5 for the three builtins); other
	// experiments ignore it.
	Seeds int

	// Backends, Shards and Batch pin the scale experiment to a single
	// configuration instead of its built-in sweep (0 = sweep; other
	// experiments ignore them). Backends also pins the hybrid
	// experiment's fleet size.
	Backends int
	Shards   int
	Batch    int

	// MaxConns sizes the pooled scale-out run's connection budget.
	// Setting it (or Backends >= 1024) switches -exp scale from the
	// sweep to the pooled scale-out with fault phases; zero means the
	// fleet-derived default.
	MaxConns int
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

// grid runs the paper's evaluation grid (§5): point(s, i, rep) for
// every scheme, sweep index i in [0,n) and rep in [0,reps), through
// forEach. It returns, for each value point yields, each scheme's per-i
// mean over reps. The mean sums x/reps in (scheme, i, rep) order
// whatever the fan-out, so it is bit-stable.
func grid(o Options, schemes []core.Scheme, n, reps int, point func(s core.Scheme, i, rep int) []float64) []map[core.Scheme][]float64 {
	vals := make([][]float64, len(schemes)*n*reps)
	forEach(o, len(vals), func(j int) {
		vals[j] = point(schemes[j/(n*reps)], j/reps%n, j%reps)
	})
	out := make([]map[core.Scheme][]float64, len(vals[0]))
	for k := range out {
		out[k] = make(map[core.Scheme][]float64, len(schemes))
		for _, s := range schemes {
			out[k][s] = make([]float64, n)
		}
	}
	for j, v := range vals {
		for k, x := range v {
			out[k][schemes[j/(n*reps)]][j/reps%n] += x / float64(reps)
		}
	}
	return out
}

// quickReps is how many seeds a paper figure averages: 3, or 1 under
// -quick.
func quickReps(o Options) int {
	if o.Quick {
		return 1
	}
	return 3
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string {
	return fmt.Sprintf("%+.1f%%", v*100)
}
