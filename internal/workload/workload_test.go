package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rdmamon/internal/httpsim"
	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
)

func TestRUBiSMixShape(t *testing.T) {
	classes := RUBiSMix()
	if len(classes) != 8 {
		t.Fatalf("RUBiS mix has %d classes, want 8 (Table 1)", len(classes))
	}
	names := map[string]bool{}
	var heaviest QueryClass
	for _, c := range classes {
		if c.CPU <= 0 || c.Weight <= 0 || c.Resp <= 0 {
			t.Fatalf("class %q has nonpositive fields", c.Name)
		}
		names[c.Name] = true
		if c.CPU > heaviest.CPU {
			heaviest = c
		}
	}
	for _, want := range []string{"Home", "Browse", "BrowseRegions", "BrowseCatgryReg",
		"SearchItemsReg", "PutBidAuth", "Sell", "AboutMe"} {
		if !names[want] {
			t.Fatalf("missing Table 1 query %q", want)
		}
	}
	// BrowseCatgryReg is the paper's slowest query (17ms avg).
	if heaviest.Name != "BrowseCatgryReg" {
		t.Fatalf("heaviest query = %q, want BrowseCatgryReg", heaviest.Name)
	}
	if len(QueryNames(classes)) != 8 {
		t.Fatal("QueryNames length mismatch")
	}
}

func TestMixSamplingMatchesWeights(t *testing.T) {
	classes := RUBiSMix()
	m := NewMix(classes)
	rng := rand.New(rand.NewSource(1))
	counts := map[string]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[m.Pick(rng).Name]++
	}
	total := 0
	for _, c := range classes {
		total += c.Weight
	}
	for _, c := range classes {
		want := float64(c.Weight) / float64(total)
		got := float64(counts[c.Name]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("%s frequency = %.3f, want %.3f", c.Name, got, want)
		}
	}
}

func TestMixZeroWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero weight should panic")
		}
	}()
	NewMix([]QueryClass{{Name: "x", Weight: 0}})
}

func TestQueryRequestMaterialization(t *testing.T) {
	c := RUBiSMix()[0]
	req := c.Request(42, -3, 100*sim.Millisecond)
	if req.ID != 42 || req.Client != -3 || req.Class != c.Name {
		t.Fatalf("request = %+v", req)
	}
	if req.CPU != c.CPU || req.IOWait != c.IOWait {
		t.Fatal("service demands not propagated")
	}
	if req.Issued != 100*sim.Millisecond {
		t.Fatal("issue time not propagated")
	}
}

func TestZipfPopularitySkew(t *testing.T) {
	z := NewZipfTrace(1000, 0.9, 7)
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.SampleDoc(rng)]++
	}
	if counts[0] <= counts[99] {
		t.Fatal("rank 0 should be far more popular than rank 99")
	}
	// At alpha=0.9 the top-10 documents take a large share.
	top10 := 0
	for i := 0; i < 10; i++ {
		top10 += counts[i]
	}
	if float64(top10)/n < 0.2 {
		t.Fatalf("top-10 share = %.3f, want > 0.2 at alpha=0.9", float64(top10)/n)
	}
}

func TestZipfAlphaControlsLocality(t *testing.T) {
	sample := func(alpha float64) float64 {
		z := NewZipfTrace(1000, alpha, 7)
		rng := rand.New(rand.NewSource(3))
		top := 0
		const n = 50000
		for i := 0; i < n; i++ {
			if z.SampleDoc(rng) < 10 {
				top++
			}
		}
		return float64(top) / n
	}
	lo, hi := sample(0.25), sample(0.9)
	if hi <= lo {
		t.Fatalf("higher alpha should concentrate: a=0.25 top=%.3f a=0.9 top=%.3f", lo, hi)
	}
}

func TestZipfRequestCosts(t *testing.T) {
	z := NewZipfTrace(1000, 0.5, 7)
	rng := rand.New(rand.NewSource(4))
	sawIO, sawNoIO := false, false
	for i := 0; i < 2000; i++ {
		req := z.Request(rng, uint64(i), -1, 0)
		if req.CPU < z.CPUBase {
			t.Fatal("request CPU below base cost")
		}
		if req.Resp <= 0 {
			t.Fatal("nonpositive response size")
		}
		if req.IOWait > 0 {
			sawIO = true
		} else {
			sawNoIO = true
		}
	}
	if !sawIO || !sawNoIO {
		t.Fatal("workload should mix cached and uncached documents")
	}
}

func TestZipfDeterministicSizes(t *testing.T) {
	a := NewZipfTrace(100, 0.5, 9)
	b := NewZipfTrace(100, 0.5, 9)
	for i := 0; i < 100; i++ {
		if a.Size(i) != b.Size(i) {
			t.Fatal("sizes must be deterministic given seed")
		}
	}
}

// Property: SampleDoc is always in range for any alpha in (0,2].
func TestQuickZipfInRange(t *testing.T) {
	z := map[int]*ZipfTrace{}
	f := func(alphaRaw uint8, seed int64) bool {
		alpha := 0.1 + float64(alphaRaw%20)/10
		key := int(alpha * 10)
		tr := z[key]
		if tr == nil {
			tr = NewZipfTrace(500, alpha, 5)
			z[key] = tr
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			d := tr.SampleDoc(rng)
			if d < 0 || d >= 500 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- client pool integration -------------------------------------------

func TestClientPoolClosedLoop(t *testing.T) {
	eng := sim.NewEngine(1)
	fab := simnet.NewFabric(eng, simnet.Defaults())
	front := simos.NewNode(eng, 0, simos.NodeDefaults())
	fnic := fab.Attach(front)
	// Trivial front-end echo "server": replies straight from node 0.
	p := front.Port(httpsim.DispatchPort)
	front.Spawn("echo-server", func(tk *simos.Task) {
		var serve func(m simos.Message)
		serve = func(m simos.Message) {
			req := m.Payload.(httpsim.Request)
			tk.Compute(req.CPU, func() {
				rep := httpsim.Reply{ID: req.ID, Class: req.Class, Issued: req.Issued, Backend: 0}
				fnic.Send(tk, req.Client, "", req.Resp, rep, func() {
					tk.Recv(p, serve)
				})
			})
		}
		tk.Recv(p, serve)
	})
	mix := NewMix(RUBiSMix())
	pool := StartClients(fab, ClientPoolConfig{
		Clients:   4,
		ThinkMean: 20 * sim.Millisecond,
		FrontEnd:  0,
		ExtBase:   -1,
		Gen:       MixGenerator(mix),
		Seed:      11,
	})
	eng.RunUntil(2 * sim.Second)
	if pool.Completed < 50 {
		t.Fatalf("completed = %d, want a steady closed loop", pool.Completed)
	}
	if pool.All.Count() != int(pool.Completed) {
		t.Fatal("sample count mismatch")
	}
	if len(pool.PerClass) < 4 {
		t.Fatalf("only %d classes seen", len(pool.PerClass))
	}
	if pool.Throughput() <= 0 {
		t.Fatal("throughput should be positive")
	}
	// Response times must include service: mean above 1ms, far below think.
	if pool.All.Mean() < 1 || pool.All.Mean() > 20 {
		t.Fatalf("mean response = %.2fms, implausible", pool.All.Mean())
	}
}

func TestBackgroundLoadRaisesUtilization(t *testing.T) {
	eng := sim.NewEngine(2)
	fab := simnet.NewFabric(eng, simnet.Defaults())
	a := simos.NewNode(eng, 1, simos.NodeDefaults())
	b := simos.NewNode(eng, 2, simos.NodeDefaults())
	an, bn := fab.Attach(a), fab.Attach(b)
	StartEchoServers(a, an, 2)
	StartEchoServers(b, bn, 2)
	cfg := BackgroundDefaults()
	cfg.Threads = 8
	cfg.Peer = 2
	StartBackground(a, an, cfg)
	eng.RunUntil(2 * sim.Second)
	s := a.K.Snapshot()
	if s.UtilMean() < 800 {
		t.Fatalf("util = %d with 8 bg threads, want >800", s.UtilMean())
	}
	// Communication must actually flow.
	if a.K.NetTxBytes == 0 || b.K.NetRxBytes == 0 {
		t.Fatal("background threads should generate traffic")
	}
}

func TestFPAppMeasuresInterference(t *testing.T) {
	eng := sim.NewEngine(3)
	node := simos.NewNode(eng, 1, simos.NodeDefaults())
	app := StartFPApp(node, 2, 10*sim.Millisecond)
	eng.RunUntil(sim.Second)
	if app.Delays.Count() < 150 {
		t.Fatalf("batches = %d, want ~200", app.Delays.Count())
	}
	// Alone on the node, normalized delay ~ 0.
	if app.Delays.Mean() > 0.02 {
		t.Fatalf("unloaded delay = %.4f, want ~0", app.Delays.Mean())
	}

	// Now with a competing boosted thread waking every 2ms.
	eng2 := sim.NewEngine(3)
	node2 := simos.NewNode(eng2, 1, simos.NodeDefaults())
	app2 := StartFPApp(node2, 2, 10*sim.Millisecond)
	node2.Spawn("pest", func(tk *simos.Task) {
		var loop func()
		loop = func() {
			tk.Compute(500*sim.Microsecond, func() {
				tk.Sleep(2*sim.Millisecond, loop)
			})
		}
		loop()
	})
	eng2.RunUntil(sim.Second)
	if app2.Delays.Mean() < 0.05 {
		t.Fatalf("interfered delay = %.4f, want noticeable slowdown", app2.Delays.Mean())
	}
}

// TestClientPoolShunsDeadReplica pins the retarget discipline: a
// replica that times out or naks is shunned individually for a
// cooldown, while requests keep round-robining across the remaining
// replicas. The old pool-wide cursor rotated once per concurrent
// failure — with N clients stuck on one dead replica that advanced the
// cursor N steps, which modulo the replica count can land every retry
// right back on the dead one.
func TestClientPoolShunsDeadReplica(t *testing.T) {
	eng := sim.NewEngine(3)
	fab := simnet.NewFabric(eng, simnet.Defaults())
	p := &ClientPool{
		Cfg:    ClientPoolConfig{FrontEnds: []int{10, 11, 12}},
		fab:    fab,
		feDown: make([]sim.Time, 3),
	}
	// Healthy pool: successive requests spread over every replica.
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		seen[p.target(p.pickFront())] = true
	}
	if len(seen) != 3 {
		t.Fatalf("healthy rotation covered %d replicas, want 3", len(seen))
	}
	// Three clients fail against replica 11 at once (the pathological
	// case for a shared cursor: 3 rotations mod 3 is a no-op).
	for i := 0; i < 3; i++ {
		p.shun(1)
	}
	if p.Retargets != 3 {
		t.Fatalf("retargets = %d, want 3", p.Retargets)
	}
	for i := 0; i < 6; i++ {
		if got := p.target(p.pickFront()); got == 11 {
			t.Fatal("picked the shunned replica during its cooldown")
		}
	}
	// After the cooldown the replica rejoins the rotation.
	eng.RunFor(frontEndCooldown + 1)
	seen = map[int]bool{}
	for i := 0; i < 3; i++ {
		seen[p.target(p.pickFront())] = true
	}
	if !seen[11] {
		t.Fatal("replica never rejoined after cooldown")
	}
	// All replicas shunned: degrade to round-robin rather than stalling.
	for i := range p.feDown {
		p.feDown[i] = eng.Now() + frontEndCooldown
	}
	if fe := p.pickFront(); fe < 0 || fe > 2 {
		t.Fatalf("all-shunned pick = %d", fe)
	}
}
