package experiments

import "sync"

// memoize returns run with its result computed once per test binary
// for each Options value: TestPaperGoldenDigests digests the figure's
// Result and its shape test reads the data, both from one run. The
// determinism tests call the figures directly, so their two runs stay
// independent.
func memoize[T any](run func(Options) T) func(Options) T {
	type cell struct {
		once sync.Once
		v    T
	}
	var mu sync.Mutex
	cells := map[Options]*cell{}
	return func(o Options) T {
		mu.Lock()
		c := cells[o]
		if c == nil {
			c = new(cell)
			cells[o] = c
		}
		mu.Unlock()
		c.once.Do(func() { c.v = run(o) })
		return c.v
	}
}

// The paper figures and the three extensions, shared by the golden and
// shape tests.
var (
	fig3Data     = memoize(Fig3)
	fig4Data     = memoize(Fig4)
	fig5Data     = memoize(Fig5)
	fig6Data     = memoize(Fig6)
	fig7Data     = memoize(Fig7)
	fig8Data     = memoize(Fig8)
	fig9Data     = memoize(Fig9)
	table1Data   = memoize(Table1)
	admitData    = memoize(Admit)
	pushData     = memoize(Push)
	reconfigData = memoize(Reconfig)
)

// memoResults renders each memoized experiment's Result from the shared
// data, as its registered Runner does from a fresh run.
var memoResults = map[string]func(Options) *Result{
	"fig3":     func(o Options) *Result { return fig3Data(o).Result() },
	"fig4":     func(o Options) *Result { return fig4Data(o).Result() },
	"fig5a":    func(o Options) *Result { return fig5Data(o).ResultThreads() },
	"fig5b":    func(o Options) *Result { return fig5Data(o).ResultCPU() },
	"fig6":     func(o Options) *Result { return fig6Data(o).Result() },
	"fig7":     func(o Options) *Result { return fig7Data(o).Result() },
	"fig8":     func(o Options) *Result { return fig8Data(o).Result() },
	"fig9":     func(o Options) *Result { return fig9Data(o).Result() },
	"table1":   func(o Options) *Result { return table1Data(o).Result() },
	"admit":    func(o Options) *Result { return admitData(o).Result() },
	"push":     func(o Options) *Result { return pushData(o).Result() },
	"reconfig": func(o Options) *Result { return reconfigData(o).Result() },
}
