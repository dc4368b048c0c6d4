package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// exactCounts are simulated quantities that repeat exactly for one
// seed and one commit; -compare reports whether two sets agree on them.
var exactCounts = []string{"sim.events_per_sim_s", "core.reads_per_sim_s", "httpsim.served_per_sim_s",
	"loadbalance.picks", "connpool.dials", "connpool.sheds", "connpool.fences"}

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

func compareFiles(w io.Writer, pathA, pathB string) bool {
	a, err := readResultFile(pathA)
	if err != nil {
		fatalf("%v", err)
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fatalf("%v", err)
	}
	return compareSets(w, pathA, a, pathB, b)
}

// compareSets prints, per workload and end-to-end metric, both values,
// b ÷ a, the bound and a verdict, with a as the base. It reports
// whether every pairing is ok.
func compareSets(w io.Writer, pathA string, a resultFile, pathB string, b resultFile) bool {
	fmt.Fprintf(w, "a: %s  commit %s seed %d  %s  nproc %d  load %.2f\n", pathA, a.Host.Commit, a.Seed, a.Host.GoVersion, a.Host.NProc, a.Host.LoadAvg1)
	fmt.Fprintf(w, "b: %s  commit %s seed %d  %s  nproc %d  load %.2f\n", pathB, b.Host.Commit, b.Seed, b.Host.GoVersion, b.Host.NProc, b.Host.LoadAvg1)
	if a.Host.Noisy || b.Host.Noisy {
		fmt.Fprintln(w, "refusing to compare: a set was measured with the load average above the core count (noisy: true); measure it again")
		return false
	}
	if a.Scale != b.Scale || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "refusing to compare: scale %s/%gs against %s/%gs\n", a.Scale, a.Seconds, b.Scale, b.Seconds)
		return false
	}
	ok := true
	fmt.Fprintf(w, "%-14s %-12s %14s %14s %18s %6s  %s\n", "workload", "metric", "a", "b", "b/a (base a)", "bound", "verdict")
	for _, ws := range workloadSpecs {
		ra, okA := a.Untraced[ws.Name]
		rb, okB := b.Untraced[ws.Name]
		if !okA || !okB {
			fmt.Fprintf(w, "%-14s missing from a set\n", ws.Name)
			ok = false
			continue
		}
		for _, m := range endToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			verdict := "ok"
			switch {
			case va == 0:
				verdict = "unresolved (base is 0)"
			case inRunSpread(ra, m.Name) > m.Bound || inRunSpread(rb, m.Name) > m.Bound:
				verdict = "unresolved (in-run uncertainty wider than the bound)"
			case m.Better == "lower" && vb > va*(1+m.Bound), m.Better == "higher" && vb < va*(1-m.Bound):
				verdict = "worse"
			}
			if verdict != "ok" {
				ok = false
			}
			ratio := 0.0
			if va != 0 {
				ratio = vb / va
			}
			fmt.Fprintf(w, "%-14s %-12s %14.6g %14.6g %9.3f of %-8.4g %5.0f%%  %s\n",
				ws.Name, m.Name, va, vb, ratio, va, 100*m.Bound, verdict)
		}
		if ra.Failed != rb.Failed || ra.Attempted == 0 || rb.Attempted == 0 {
			fmt.Fprintf(w, "%-14s fail_share %d/%d against %d/%d\n", ws.Name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			if rb.Failed*ra.Attempted > ra.Failed*rb.Attempted {
				ok = false
			}
		}
		if a.Seed == b.Seed && ra.Fingerprint != rb.Fingerprint {
			fmt.Fprintf(w, "%-14s fingerprint differs: %s against %s (same seed: simulated results changed)\n",
				ws.Name, ra.Fingerprint, rb.Fingerprint)
			ok = false
		}
		if a.Seed == b.Seed {
			ta, tb := a.Traced[ws.Name], b.Traced[ws.Name]
			for _, name := range exactCounts {
				if ca, cb := ta.Metrics[name].Value, tb.Metrics[name].Value; ca != cb {
					fmt.Fprintf(w, "%-14s exact count %s differs: %g against %g\n", ws.Name, name, ca, cb)
					ok = false
				}
			}
		}
	}
	if a.Seed == b.Seed {
		fmt.Fprintln(w, "same seed: fingerprints and exact counts were compared; any difference is listed above")
	} else {
		fmt.Fprintln(w, "different seeds: fingerprints and exact counts not compared")
	}
	return ok
}

// inRunSpread is how uncertain one run's own value of a metric is: the
// distance between the first and third quartile of its slices over the
// square root of their number (the standard error of their centre, to
// within a few percent), as a share of the value. setup_s has too few
// repetitions in a run for quartiles to mean anything.
func inRunSpread(r runResult, metric string) float64 {
	if metric == "setup_s" {
		return 0
	}
	q, ok := r.Spread[metric]
	v, n := r.Metrics[metric].Value, r.Samples[metric]
	if !ok || v == 0 || n == 0 {
		return 0
	}
	return (q[1] - q[0]) / v / math.Sqrt(float64(n))
}
