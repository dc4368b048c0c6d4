// Command bench is rdmamon's wall-clock benchmark: five workloads over
// the simulator and the live verbs path, three end-to-end metrics
// reported by every workload, and a per-layer ledger from a traced run.
// README.md in this directory is the manual.
//
//	go run ./bench                         every workload, untraced then traced
//	go run ./bench -workload live-mixed    one workload
//	go run ./bench -workload sweep-8192 -trace 1 -trace-out sweep.json
//	go run ./bench -layers                 the layers pass alone
//	go run ./bench -compare a.json b.json  two result files, metric by metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

// value is one metric as the contract line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of a single-workload run's output.
type contractLine struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// detail is what a single-workload run tells the full-set parent
// beyond the contract line; it travels on a "#detail " line.
type detail struct {
	Workload    string                `json:"workload"`
	Traced      bool                  `json:"traced"`
	Fingerprint string                `json:"fingerprint,omitempty"`
	Spread      map[string][2]float64 `json:"spread,omitempty"`  // in-run first and third quartile
	Samples     map[string]int        `json:"samples,omitempty"` // values behind each metric
	Breakdown   *breakdown            `json:"breakdown,omitempty"`
	Violations  []string              `json:"violations,omitempty"`
}

const detailPrefix = "#detail "

func main() {
	var (
		workload = flag.String("workload", "", "run one workload: "+workloadNames())
		seed     = flag.Int64("seed", 1, "workload seed; the program under test sees only generated inputs")
		secs     = flag.Float64("seconds", runSeconds, "measuring time per workload")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and the breakdown table")
		traceOut = flag.String("trace-out", "", "write the traced run's spans here (Chrome trace format)")
		scale    = flag.String("scale", "full", "full, or tiny for the smoke test")
		layers   = flag.Bool("layers", false, "run the layers pass alone")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		out      = flag.String("out", "", "full set: write the result file here")
		spec     = flag.Bool("benchmark-json", false, "print BENCHMARK.json from the metric catalogue")
	)
	flag.Parse()

	sz := fullSizes
	switch *scale {
	case "full":
	case "tiny":
		sz = tinySizes
	default:
		fatalf("unknown -scale %q", *scale)
	}
	switch {
	case *spec:
		os.Stdout.Write(benchmarkJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare takes two result files")
		}
		if !compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)) {
			os.Exit(1)
		}
	case *layers:
		lp, err := runLayers(sz)
		if err != nil {
			fatalf("layers pass: %v", err)
		}
		printMetrics(os.Stdout, "layers pass (host time per operation, median over batches)", layerPassSpecs(lp), lp.out)
	case *workload != "":
		cfg := &runConfig{workload: *workload, seed: *seed, seconds: time.Duration(*secs * float64(time.Second)),
			traced: *trace != 0, sz: sz}
		correct, err := runOne(os.Stdout, cfg, *traceOut)
		if err != nil {
			fatalf("%s: %v", cfg.workload, err)
		}
		if !correct {
			os.Exit(1)
		}
	default:
		if !runSet(os.Stdout, *seed, *secs, *scale, *out) {
			os.Exit(1)
		}
	}
}

func workloadNames() string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// layerPassSpecs are the catalogue entries the layers pass fills in.
func layerPassSpecs(lp *layerPass) []metricSpec {
	var out []metricSpec
	for _, s := range perLayer {
		if _, ok := lp.out[s.Name]; ok {
			out = append(out, s)
		}
	}
	return out
}

// execute dispatches one workload by name.
func execute(cfg *runConfig, o *outcome) error {
	switch cfg.workload {
	case "sweep-8192":
		return runCluster(cfg, o, false)
	case "dispatch-64":
		return runCluster(cfg, o, true)
	case "scaleout-8192":
		return runScaleOut(cfg, o)
	case "live-probe":
		return runLive(cfg, o, buildProbe(cfg), "livemon.fetch")
	case "live-mixed":
		return runLive(cfg, o, buildMixed(cfg), "tcpverbs.iteration")
	}
	return fmt.Errorf("unknown workload %q (have %s)", cfg.workload, workloadNames())
}

// runOne runs one workload in this process and prints its report, the
// detail line and, last, the contract line. It reports whether the
// run was correct; an error means the run could not be measured at all.
func runOne(w io.Writer, cfg *runConfig, traceOut string) (bool, error) {
	if cfg.traced {
		cfg.tr = newTracer()
	}
	o := &outcome{}
	if err := execute(cfg, o); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "== %s seed=%d seconds=%g trace=%t ==\n", cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.traced)
	for _, n := range o.notes {
		fmt.Fprintln(w, "note:", n)
	}
	d := detail{Workload: cfg.workload, Traced: cfg.traced, Fingerprint: o.fingerprint, Violations: o.violations}
	line := contractLine{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]value{}}

	if !cfg.traced {
		vals, spread, n := o.endToEndValues()
		d.Spread, d.Samples = spread, n
		printMetrics(w, "end-to-end (tracing off)", endToEnd, vals)
		for _, s := range endToEnd {
			line.Metrics[s.Name] = value{vals[s.Name], s.Unit}
		}
	} else {
		lp, err := runLayers(cfg.sz)
		if err != nil {
			return false, fmt.Errorf("layers pass: %w", err)
		}
		vals := map[string]float64{}
		for k, v := range lp.out {
			vals[k] = v
		}
		for k, v := range o.counts {
			vals[k] = v
		}
		b := o.table(lp)
		d.Breakdown = b
		for _, layer := range breakdownLayers {
			vals["share."+layer] = b.share(layer)
		}
		vals["trace.unattributed_share"] = b.share("unattributed")
		vals["trace.overhead_share"] = o.traceOverhead()
		printMetrics(w, "per-layer (traced run; unit costs from the layers pass)", perLayer, vals)
		fmt.Fprintf(w, "breakdown of the traced part of the window (estimated rows are count x layers-pass unit cost)\n")
		b.print(w)
		for _, s := range perLayer {
			line.Metrics[s.Name] = value{vals[s.Name], s.Unit}
		}
		if traceOut != "" {
			if err := cfg.tr.writeChrome(traceOut); err != nil {
				return false, fmt.Errorf("writing trace: %w", err)
			}
		}
	}
	if o.fingerprint != "" {
		fmt.Fprintln(w, "fingerprint", o.fingerprint)
	}
	fmt.Fprintf(w, "fail_share %d/%d\n", o.failed, o.attempted)
	for _, v := range o.violations {
		fmt.Fprintln(w, "VIOLATION:", v)
	}
	if line.Attempted == 0 {
		line.Attempted = 1 // nothing was even attempted: one failed run
		line.Failed = 1
		o.violations = append(o.violations, "nothing attempted")
	}
	line.Correct = len(o.violations) == 0
	dj, _ := json.Marshal(d) // plain data: cannot fail
	fmt.Fprintf(w, "%s%s\n", detailPrefix, dj)
	lj, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", lj)
	return line.Correct, nil
}

// runResult is one child run as the result file keeps it.
type runResult struct {
	contractLine
	detail
}

// resultFile is what a full set writes and -compare reads.
type resultFile struct {
	Host     hostInfo             `json:"host"`
	Seed     int64                `json:"seed"`
	Seconds  float64              `json:"seconds"`
	Scale    string               `json:"scale"`
	Untraced map[string]runResult `json:"untraced"`
	Traced   map[string]runResult `json:"traced"`
}

// runSet runs every workload in a fresh child process, untraced then
// traced, checks that each simulated workload's fingerprint is the same
// in both, and writes the result file.
func runSet(w io.Writer, seed int64, secs float64, scale, out string) bool {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	rf := resultFile{Host: readHostInfo(), Seed: seed, Seconds: secs, Scale: scale,
		Untraced: map[string]runResult{}, Traced: map[string]runResult{}}
	if rf.Host.Noisy {
		fmt.Fprintf(w, "NOISY: load average %.2f exceeds %d cores; -compare will refuse this set\n",
			rf.Host.LoadAvg1, rf.Host.NProc)
	}
	ok := true
	for _, ws := range workloadSpecs {
		for _, traced := range []bool{false, true} {
			t := 0
			if traced {
				t = 1
			}
			cmd := exec.Command(self, "-workload", ws.Name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(secs), "-trace", fmt.Sprint(t), "-scale", scale)
			cmd.Stderr = os.Stderr
			outBytes, err := cmd.Output()
			w.Write(outBytes)
			res, perr := parseRun(outBytes)
			if perr != nil {
				fmt.Fprintf(w, "FAILED %s: %v (exit: %v)\n", ws.Name, perr, err)
				ok = false
				continue
			}
			if err != nil || !res.Correct {
				ok = false
			}
			if traced {
				rf.Traced[ws.Name] = res
			} else {
				rf.Untraced[ws.Name] = res
			}
		}
		u, t := rf.Untraced[ws.Name], rf.Traced[ws.Name]
		if u.Fingerprint != t.Fingerprint {
			fmt.Fprintf(w, "FAILED %s: fingerprint %s untraced, %s traced\n", ws.Name, u.Fingerprint, t.Fingerprint)
			ok = false
		}
	}
	if out != "" {
		b, _ := json.MarshalIndent(rf, "", " ")
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	return ok
}

// parseRun extracts the detail line and the contract line from a
// single-workload run's output.
func parseRun(out []byte) (runResult, error) {
	var res runResult
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if len(lines) < 2 {
		return res, fmt.Errorf("no result printed")
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res.contractLine); err != nil {
		return res, fmt.Errorf("contract line: %w", err)
	}
	rest, found := strings.CutPrefix(lines[len(lines)-2], detailPrefix)
	if !found {
		return res, fmt.Errorf("no detail line")
	}
	if err := json.Unmarshal([]byte(rest), &res.detail); err != nil {
		return res, fmt.Errorf("detail line: %w", err)
	}
	return res, nil
}
