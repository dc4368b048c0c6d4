// Command rmmon runs the live (real-network) monitoring system: an
// agent that exposes this machine's load over the TCP verbs emulation,
// and a probe that polls agents and prints their load records.
//
// Usage:
//
//	rmmon agent -scheme rdma-sync -listen :9377
//	rmmon probe -scheme rdma-sync -targets host1:9377,host2:9377 -interval 50ms
//	rmmon once  -target host1:9377
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rdmamon/internal/core"
	"rdmamon/internal/livemon"
	"rdmamon/internal/sim"
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
  probe    -scheme <name> -targets <addr,...> [-interval <dur>] [-count n] [-failover]
           [-burst k] [-history] [-claim <fe-id> [-claim-owners n] [-witness <addr>]]
           [-period-max <dur> [-push-threshold x]]
  once     -target <addr>
  pushhost -listen <addr> -nodes <id,...> [-count n]

schemes: socket-async, socket-sync, rdma-async, rdma-sync, e-rdma-sync`)
}

func mustScheme(name string) core.Scheme {
	s, err := core.ParseScheme(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmmon:", err)
		os.Exit(2)
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
	burst := fs.Int("burst", 1, "pipelined reads per probe cycle (RDMA schemes): k distinct samples in ~one round trip")
	history := fs.Bool("history", false, "fetch each ring-publishing agent's full history window per cycle and report its load trend")
	claimID := fs.Int("claim", 0, "front-end replica id (1-based): contend for the claim table hosted by the witness in -witness")
	claimOwners := fs.Int("claim-owners", 0, "front-end ring size for the home-shard mapping (0 = no home preference: every replica bids as home, HA on a 1-shard table)")
	witness := fs.String("witness", "", "witness agent address hosting the claim table (default: first target)")
	periodMax := fs.Duration("period-max", 0, "adaptive polling: decay quiet targets' poll period up to this ceiling (0 = fixed period)")
	pushTh := fs.Float64("push-threshold", 0, "adaptive polling: load-index delta that counts as change (0 = default 0.05)")
	fs.Parse(args)
	if *targets == "" {
		fmt.Fprintln(os.Stderr, "rmmon probe: -targets required")
		os.Exit(2)
	}
	addrs := strings.Split(*targets, ",")
	probes := make([]*livemon.Probe, 0, len(addrs))
	for _, addr := range addrs {
		p, err := livemon.Dial(strings.TrimSpace(addr))
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmmon probe: %s: %v\n", addr, err)
			os.Exit(1)
		}
		defer p.Close()
		if *failover {
			p.SetFailover(core.FailoverConfig{})
		}
		probes = append(probes, p)
	}
	var claims *livemon.ClaimClient
	if *claimID > 0 {
		waddr := strings.TrimSpace(*witness)
		if waddr == "" {
			waddr = strings.TrimSpace(addrs[0])
		}
		cc, err := livemon.DialClaims(waddr, uint16(*claimID), *claimOwners, core.ClaimConfig{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmmon probe: claim witness %s: %v\n", waddr, err)
			os.Exit(1)
		}
		defer cc.Close()
		claims = cc
	}
	w := core.DefaultWeights()
	// Adaptive polling (-period-max): each target's decision and the
	// instant its next probe is due.
	threshold := *pushTh
	if threshold <= 0 {
		threshold = core.DefaultChangeThreshold
	}
	var polls []core.AdaptivePoll
	due := make([]time.Time, len(probes))
	trends := make([]core.TrendTracker, len(probes))
	if *periodMax > 0 {
		polls = make([]core.AdaptivePoll, len(probes))
		for i := range polls {
			polls[i].Ctrl.Cfg = core.PeriodConfig{Min: sim.Time(*interval), Max: sim.Time(*periodMax)}.WithDefaults(sim.Time(*interval))
		}
	}
	for cycle := 0; *count == 0 || cycle < *count; cycle++ {
		start := time.Now()
		if claims != nil {
			tk, rn, dp, hb := claims.Counters()
			_, _, fenced := claims.Errors()
			fmt.Printf("claims: held=%d/%d takeovers=%d renewals=%d deposals=%d handbacks=%d fenced=%d\n",
				claims.HeldValid(), claims.Shards(), tk, rn, dp, hb, fenced)
		}
		for i, p := range probes {
			if polls != nil && time.Now().Before(due[i]) {
				continue
			}
			if *history && p.RingK() > 0 {
				v, err := p.FetchHistory()
				if err != nil {
					fmt.Printf("%-22s ERROR %v\n", addrs[i], err)
					continue
				}
				trends[i].ObserveRing(&v)
				tag := " hist"
				if s, ok := trends[i].Slope(); ok {
					tag = fmt.Sprintf(" hist slope=%+.3f/s", s)
				}
				newest := v.Newest()
				printRecord(addrs[i], newest, w.IndexOf(&newest), time.Since(start), tag)
				continue
			}
			if *burst > 1 && p.Scheme().UsesRDMA() {
				recs, err := p.FetchBurst(*burst)
				if err != nil {
					fmt.Printf("%-22s ERROR %v\n", addrs[i], err)
					continue
				}
				for _, rec := range recs {
					printRecord(addrs[i], rec, w.IndexOf(&rec), time.Since(start), " burst")
				}
				continue
			}
			rec, tr, err := p.FetchVia()
			if polls != nil {
				seen := &rec
				if err != nil {
					seen = nil
				}
				held := claims == nil || claims.HeldValid() > 0
				due[i] = time.Now().Add(time.Duration(polls[i].Observe(seen, threshold, core.Healthy, held)))
			}
			if err != nil {
				fmt.Printf("%-22s ERROR %v\n", addrs[i], err)
				continue
			}
			via := ""
			if p.Failover() != nil {
				via = " via=" + tr.String()
			}
			printRecord(addrs[i], rec, w.IndexOf(&rec), time.Since(start), via)
		}
		time.Sleep(*interval)
	}
}

func runPushHost(args []string) {
	fs := flag.NewFlagSet("pushhost", flag.ExitOnError)
	listen := fs.String("listen", ":9378", "listen address")
	nodes := fs.String("nodes", "", "comma-separated back-end node ids to host slots for")
	count := fs.Int("count", 0, "number of 1s status lines to print (0 = forever)")
	fs.Parse(args)
	if *nodes == "" {
		fmt.Fprintln(os.Stderr, "rmmon pushhost: -nodes required")
		os.Exit(2)
	}
	var ids []uint16
	for _, f := range strings.Split(*nodes, ",") {
		var id int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &id); err != nil {
			fmt.Fprintf(os.Stderr, "rmmon pushhost: bad node id %q\n", f)
			os.Exit(2)
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
	for cycle := 0; *count == 0 || cycle < *count; cycle++ {
		time.Sleep(time.Second)
		rx, torn := h.Stats()
		fmt.Printf("pushes=%d torn=%d\n", rx, torn)
		for _, id := range ids {
			rec, at, ok := h.Latest(id)
			if !ok {
				fmt.Printf("  node %-5d (no pushes yet)\n", id)
				continue
			}
			printRecord(fmt.Sprintf("node %d", id), rec.Load, w.IndexOf(&rec.Load),
				time.Since(at).Round(time.Millisecond), " pushed")
		}
	}
}

func runOnce(args []string) {
	fs := flag.NewFlagSet("once", flag.ExitOnError)
	target := fs.String("target", "127.0.0.1:9377", "agent address")
	fs.Parse(args)
	p, err := livemon.Dial(*target)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmmon once:", err)
		os.Exit(1)
	}
	defer p.Close()
	start := time.Now()
	rec, err := p.Fetch()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmmon once:", err)
		os.Exit(1)
	}
	w := core.DefaultWeights()
	printRecord(*target, rec, w.IndexOf(&rec), time.Since(start), "")
}

func printRecord(addr string, r wire.LoadRecord, index float64, rtt time.Duration, extra string) {
	fmt.Printf("%-22s node=%d seq=%-6d util=%3d%% run=%-3d tasks=%-4d mem=%3.0f%% conns=%-3d index=%.3f rtt=%s%s\n",
		addr, r.NodeID, r.Seq, r.UtilMean()/10, r.NrRunning, r.NrTasks,
		r.MemFraction()*100, r.Conns, index, rtt.Round(time.Microsecond), extra)
}
