// Command rmmon runs the live (real-network) monitoring system: an
// agent that exposes this machine's load over the TCP verbs emulation,
// and a probe that polls agents and prints their load records.
//
// Usage:
//
//	rmmon agent -scheme rdma-sync -listen :9377
//	rmmon probe -targets host1:9377,host2:9377 -interval 50ms
//	rmmon once  -target host1:9377 [-burst k | -history]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rdmamon/internal/core"
	"rdmamon/internal/livemon"
	"rdmamon/internal/wire"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "agent":
		runAgent(os.Args[2:])
	case "probe":
		runProbe(os.Args[2:])
	case "once":
		runOnce(os.Args[2:])
	case "pushhost":
		runPushHost(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `rmmon — live fine-grained resource monitoring

subcommands:
  agent    -scheme <name> -listen <addr> -node <id> [-interval <dur>] [-history k] [-mr-flap <dur>]
           [-host-claims <shards>] [-push-to <addr> [-push-threshold x] [-push-heartbeat <dur>]]
  probe    -targets <addr,...> [-interval <dur>] [-count n] [-failover]
           [-claim <fe-id> [-claim-owners n] [-witness <addr>]]
           [-period-max <dur> [-push-threshold x]]
  once     -target <addr> [-burst k | -history]
  pushhost -listen <addr> -nodes <id,...> [-count n]

schemes: socket-async, socket-sync, rdma-async, rdma-sync, e-rdma-sync`)
}

// badUsage reports a usage error and exits 2.
func badUsage(format string, a ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", a...)
	os.Exit(2)
}

func mustScheme(name string) core.Scheme {
	s, err := core.ParseScheme(name)
	if err != nil {
		badUsage("rmmon: %v", err)
	}
	return s
}

func runAgent(args []string) {
	fs := flag.NewFlagSet("agent", flag.ExitOnError)
	scheme := fs.String("scheme", "rdma-sync", "monitoring scheme")
	listen := fs.String("listen", ":9377", "listen address")
	node := fs.Int("node", 0, "node id reported in records")
	interval := fs.Duration("interval", 50*time.Millisecond, "async refresh period")
	history := fs.Int("history", 0, "RDMA schemes: publish a k-slot history ring instead of a single record (one read fetches the last k samples)")
	mrFlap := fs.Duration("mr-flap", 0, "chaos: invalidate the RDMA region every interval, re-pinning after 1/4 of it")
	hostClaims := fs.Int("host-claims", 0, "witness role: host an n-shard front-end claim table for one-sided CAS (1 = HA primaryship)")
	pushTo := fs.String("push-to", "", "hybrid scheme: RDMA-Write delta records to this push host")
	pushTh := fs.Float64("push-threshold", 0, "hybrid scheme: load-index delta that triggers a push (0 = default 0.05)")
	pushHB := fs.Duration("push-heartbeat", 0, "hybrid scheme: max silence before a forced push (0 = default 16x check)")
	fs.Parse(args)
	if *hostClaims < 0 || *hostClaims > math.MaxUint16 {
		badUsage("rmmon agent: -host-claims %d is outside 0..%d (the key reply's uint16 shard count)", *hostClaims, math.MaxUint16)
	}

	var push *livemon.PusherConfig
	if *pushTo != "" {
		push = &livemon.PusherConfig{
			Target: *pushTo, Threshold: *pushTh,
			Check: *interval, Heartbeat: *pushHB,
		}
	}
	a, err := livemon.StartAgent(livemon.Config{
		Scheme:     mustScheme(*scheme),
		Addr:       *listen,
		NodeID:     uint16(*node),
		Interval:   *interval,
		HistoryK:   *history,
		HostClaims: *hostClaims,
		Push:       push,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmmon agent:", err)
		os.Exit(1)
	}
	ringNote := ""
	if a.RingK() > 0 {
		ringNote = fmt.Sprintf(" history=%d", a.RingK())
	}
	fmt.Printf("rmmon agent: scheme=%s listening on %s (node %d)%s\n",
		a.Scheme(), a.Addr(), *node, ringNote)
	if *mrFlap > 0 {
		go func() {
			for range time.Tick(*mrFlap) {
				a.InvalidateMR(*mrFlap / 4)
			}
		}()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	a.Close()
}

func runProbe(args []string) {
	fs := flag.NewFlagSet("probe", flag.ExitOnError)
	targets := fs.String("targets", "", "comma-separated agent addresses")
	interval := fs.Duration("interval", 50*time.Millisecond, "poll interval")
	count := fs.Int("count", 0, "number of polling cycles (0 = forever)")
	failover := fs.Bool("failover", false, "arm the RDMA->socket transport breaker (RDMA schemes)")
	claimID := fs.Int("claim", 0, "front-end replica id (1-based): contend for the claim table hosted by the witness in -witness")
	claimOwners := fs.Int("claim-owners", 0, "front-end ring size for the home-shard mapping (0 = no home preference: every replica bids as home, HA on a 1-shard table)")
	witness := fs.String("witness", "", "witness agent address hosting the claim table (default: first target)")
	periodMax := fs.Duration("period-max", 0, "adaptive polling: decay quiet targets' poll period up to this ceiling (0 = fixed period)")
	pushTh := fs.Float64("push-threshold", 0, "adaptive polling: load-index delta that counts as change (0 = default 0.05)")
	fs.Parse(args)
	if *targets == "" || *interval <= 0 {
		badUsage("rmmon probe: -targets and a positive -interval required")
	}
	if *periodMax > 0 && *periodMax < *interval {
		badUsage("rmmon probe: period ceiling %v is below the floor %v (-period-max, -interval)", *periodMax, *interval)
	}
	if *claimID < 0 || *claimID > math.MaxUint16 {
		badUsage("rmmon probe: -claim %d is outside 1..%d (a wrapped id aliases a replica or the vacant owner 0)", *claimID, math.MaxUint16)
	}
	if *claimID == 0 && (*witness != "" || *claimOwners != 0) {
		badUsage("rmmon probe: -witness and -claim-owners need -claim")
	}
	addrs := strings.Split(*targets, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	var claims *livemon.ClaimClient
	if *claimID > 0 {
		waddr := strings.TrimSpace(*witness)
		if waddr == "" {
			waddr = addrs[0]
		}
		cc, err := livemon.DialClaims(waddr, uint16(*claimID), *claimOwners, core.ClaimConfig{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmmon probe: claim witness %s: %v\n", waddr, err)
			os.Exit(1)
		}
		defer cc.Close()
		claims = cc
	}
	cfg := livemon.MonitorConfig{Interval: *interval, Failover: *failover}
	if *periodMax > 0 {
		cfg.Adaptive = &livemon.AdaptiveConfig{Max: *periodMax, Threshold: *pushTh}
		if claims != nil {
			cfg.Adaptive.LeaseValid = func() bool { return claims.HeldValid() > 0 }
		}
	}
	m, dialErrs := livemon.NewMonitor(addrs, cfg)
	defer m.Close()
	for _, addr := range addrs {
		if err := dialErrs[addr]; err != nil {
			fmt.Fprintf(os.Stderr, "rmmon probe: %s: %v\n", addr, err)
		}
	}
	if len(dialErrs) > 0 {
		os.Exit(1)
	}
	w := core.DefaultWeights()
	printed := make(map[string]time.Time, len(addrs)) // arrival of the last record printed per target
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for cycle := 0; *count == 0 || cycle < *count; cycle++ {
		<-tick.C
		if claims != nil {
			tk, rn, dp, hb := claims.Counters()
			_, _, fenced := claims.Errors()
			fmt.Printf("claims: held=%d/%d takeovers=%d renewals=%d deposals=%d handbacks=%d fenced=%d\n",
				claims.HeldValid(), claims.Shards(), tk, rn, dp, hb, fenced)
		}
		for _, addr := range addrs {
			if err := m.Err(addr); err != nil {
				fmt.Printf("%-22s ERROR %v health=%s\n", addr, err, m.Health(addr))
				continue
			}
			rec, at, ok := m.Latest(addr)
			if !ok || !at.After(printed[addr]) {
				continue // not due yet, or an adaptive skip
			}
			printed[addr] = at
			via := ""
			if *failover {
				via = " via=" + m.Transport(addr).String()
			}
			printRecord(addr, rec, w.IndexOf(&rec), "age", time.Since(at), via)
		}
	}
}

func runPushHost(args []string) {
	fs := flag.NewFlagSet("pushhost", flag.ExitOnError)
	listen := fs.String("listen", ":9378", "listen address")
	nodes := fs.String("nodes", "", "comma-separated back-end node ids to host slots for")
	count := fs.Int("count", 0, "number of 1s status lines to print (0 = forever)")
	fs.Parse(args)
	if *nodes == "" {
		badUsage("rmmon pushhost: -nodes required")
	}
	var ids []uint16
	for _, f := range strings.Split(*nodes, ",") {
		var id int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &id); err != nil {
			badUsage("rmmon pushhost: bad node id %q", f)
		}
		ids = append(ids, uint16(id))
	}
	h, err := livemon.StartPushHost(*listen, ids)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmmon pushhost:", err)
		os.Exit(1)
	}
	defer h.Close()
	fmt.Printf("rmmon pushhost: listening on %s, slots for nodes %v\n", h.Addr(), ids)
	w := core.DefaultWeights()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	for cycle := 0; *count == 0 || cycle < *count; cycle++ {
		select {
		case <-sig:
			return
		case <-time.After(time.Second):
		}
		rx, torn := h.Stats()
		fmt.Printf("pushes=%d torn=%d\n", rx, torn)
		for _, id := range ids {
			rec, at, ok := h.Latest(id)
			if !ok {
				fmt.Printf("  node %-5d (no pushes yet)\n", id)
				continue
			}
			printRecord(fmt.Sprintf("node %d", id), rec.Load, w.IndexOf(&rec.Load),
				"age", time.Since(at).Round(time.Millisecond), " pushed")
		}
	}
}

func runOnce(args []string) {
	fs := flag.NewFlagSet("once", flag.ExitOnError)
	target := fs.String("target", "127.0.0.1:9377", "agent address")
	burst := fs.Int("burst", 1, "pipelined reads in the one fetch (RDMA schemes): k distinct samples in ~one round trip")
	history := fs.Bool("history", false, "fetch a ring-publishing agent's whole history window and print its newest record with the window's load trend")
	fs.Parse(args)
	p, err := livemon.Dial(*target)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmmon once:", err)
		os.Exit(1)
	}
	defer p.Close()
	w := core.DefaultWeights()
	start := time.Now()
	var recs []wire.LoadRecord
	tag := ""
	switch {
	case *history && p.RingK() > 0:
		var v wire.RingView
		if v, err = p.FetchHistory(); err == nil {
			var tr core.TrendTracker
			tr.ObserveRing(&v)
			tag = " hist"
			if s, ok := tr.Slope(); ok {
				tag = fmt.Sprintf(" hist slope=%+.3f/s", s)
			}
			recs = []wire.LoadRecord{v.Newest()}
		}
	case *burst > 1 && p.Scheme().UsesRDMA():
		recs, err = p.FetchBurst(*burst)
		tag = " burst"
	default:
		var rec wire.LoadRecord
		rec, err = p.Fetch()
		recs = []wire.LoadRecord{rec}
	}
	rtt := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmmon once:", err)
		os.Exit(1)
	}
	for _, rec := range recs {
		printRecord(*target, rec, w.IndexOf(&rec), "rtt", rtt, tag)
	}
}

// printRecord prints one record; label names what d measures: "rtt"
// for a fetch's round trip, "age" for the time since a record arrived.
func printRecord(addr string, r wire.LoadRecord, index float64, label string, d time.Duration, extra string) {
	fmt.Printf("%-22s node=%d seq=%-6d util=%3d%% run=%-3d tasks=%-4d mem=%3.0f%% conns=%-3d index=%.3f %s=%s%s\n",
		addr, r.NodeID, r.Seq, r.UtilMean()/10, r.NrRunning, r.NrTasks,
		r.MemFraction()*100, r.Conns, index, label, d.Round(time.Microsecond), extra)
}
