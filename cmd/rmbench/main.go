// Command rmbench regenerates the paper's tables and figures from the
// simulated cluster.
//
// Usage:
//
//	rmbench -exp fig3            # one experiment
//	rmbench -exp all             # everything (slow)
//	rmbench -list                # enumerate experiments
//	rmbench -exp fig7 -quick     # short run (noisier tails)
//	rmbench -exp fig9 -seed 7    # change the simulation seed
//	rmbench -exp scale -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"

	"rdmamon/internal/experiments"
)

func main() { os.Exit(run()) }

func run() int {
	var opts experiments.Options
	flag.BoolVar(&opts.Quick, "quick", false, "short runs (noisier tails)")
	flag.Int64Var(&opts.Seed, "seed", 0, "simulation seed (0 = default)")
	flag.IntVar(&opts.Seeds, "seeds", 0, "seeds swept by -exp chaos/ha/aa and -scenario (0 = each one's default)")
	flag.BoolVar(&opts.Sequential, "seq", false, "run sweep points sequentially")
	flag.IntVar(&opts.Backends, "backends", 0, "pin -exp scale to one back-end count (0 = sweep)")
	flag.IntVar(&opts.Shards, "shards", 0, "pin -exp scale to one shard count (0 = sweep)")
	flag.IntVar(&opts.Batch, "batch", 0, "pin -exp scale to one doorbell batch size (0 = sweep)")
	flag.IntVar(&opts.MaxConns, "max-conns", 0, "-exp scale: pooled scale-out connection budget (0 = fleet/8, at least 64)")
	var (
		exp     = flag.String("exp", "", "experiment id (fig3..fig9, table1, extensions, or 'all')")
		scen    = flag.String("scenario", "", "run a declarative scenario file (YAML or JSON, see examples/scenarios/)")
		list    = flag.Bool("list", false, "list experiment ids")
		format  = flag.String("format", "table", "output format: table, csv, plot")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memProf = flag.String("memprofile", "", "write a heap profile (after the runs) to this file")
		traceF  = flag.String("trace", "", "write a runtime execution trace of the runs to this file")
	)
	flag.Parse()

	if *list || (*exp == "" && *scen == "") {
		fmt.Println("experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-8s %s\n", id, experiments.Title(id))
		}
		if *exp == "" && *scen == "" && !*list {
			return 2
		}
		return 0
	}

	stopProfiling, err := startProfiling(*cpuProf, *memProf, *traceF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmbench:", err)
		return 1
	}
	defer stopProfiling()

	var ids []string
	switch *exp {
	case "":
	case "all":
		ids = experiments.IDs()
	default:
		ids = []string{*exp}
	}
	failed := false
	emit := func(res *experiments.Result, start time.Time) {
		switch *format {
		case "csv":
			res.RenderCSV(os.Stdout)
		case "plot":
			res.RenderPlot(os.Stdout)
		default:
			res.Render(os.Stdout)
		}
		fmt.Printf("  (%.1fs wall)\n\n", time.Since(start).Seconds())
		failed = failed || res.Failed
	}
	if *scen != "" {
		start := time.Now()
		res, err := experiments.RunScenarioFile(*scen, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rmbench:", err)
			return 1
		}
		emit(res, start)
	}
	for _, id := range ids {
		start := time.Now()
		res, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rmbench:", err)
			return 1
		}
		emit(res, start)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "rmbench: assertion or invariant violations (see notes above)")
		return 1
	}
	return 0
}

// startProfiling arms the requested runtime profilers and returns the
// teardown that flushes them; main routes every exit through it so a
// profile is never truncated by an early return.
func startProfiling(cpu, mem, traceFile string) (stop func(), err error) {
	var stops []func()
	stop = func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return stop, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return stop, err
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			stop()
			return func() {}, err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			stop()
			return func() {}, err
		}
		stops = append(stops, func() {
			trace.Stop()
			f.Close()
		})
	}
	if mem != "" {
		f, err := os.Create(mem)
		if err != nil {
			stop()
			return func() {}, err
		}
		stops = append(stops, func() {
			runtime.GC() // settle the heap so the profile shows retained allocations
			if werr := pprof.Lookup("heap").WriteTo(f, 0); werr != nil {
				fmt.Fprintln(os.Stderr, "rmbench: heap profile:", werr)
			}
			f.Close()
		})
	}
	return stop, nil
}
