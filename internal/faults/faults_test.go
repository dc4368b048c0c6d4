package faults

import (
	"testing"

	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
)

func testNode(eng *sim.Engine, id int) *simos.Node {
	return simos.NewNode(eng, id, simos.NodeDefaults())
}

// TestCrashRestartSchedule checks that Crash/Restart fire at the
// planned times and invoke the hooks in order.
func TestCrashRestartSchedule(t *testing.T) {
	eng := sim.NewEngine(1)
	n := testNode(eng, 1)
	plan := Plan{
		Seed:    7,
		Crashes: []Crash{{Node: 1, At: 100 * sim.Millisecond, RestartAt: 300 * sim.Millisecond}},
	}
	fab := simnet.NewFabric(eng, simnet.Defaults())
	fab.Attach(n)
	in := NewInjector(eng, plan)
	var events []string
	in.OnCrash = func(node int) {
		if !n.Down() {
			t.Error("OnCrash ran before node went down")
		}
		events = append(events, "crash")
	}
	in.OnRestart = func(node int) {
		if n.Down() {
			t.Error("OnRestart ran before node came back")
		}
		events = append(events, "restart")
	}
	in.Install(fab, map[int]*simos.Node{1: n})

	eng.RunFor(200 * sim.Millisecond)
	if !n.Down() {
		t.Fatal("node should be down at t=200ms")
	}
	eng.RunFor(200 * sim.Millisecond)
	if n.Down() {
		t.Fatal("node should be restarted at t=400ms")
	}
	if len(events) != 2 || events[0] != "crash" || events[1] != "restart" {
		t.Fatalf("events = %v", events)
	}
	if in.CrashEvents != 1 {
		t.Fatalf("CrashEvents = %d", in.CrashEvents)
	}
}

// TestFreezeWindow checks Freeze/Thaw scheduling through the node: a
// compute loop makes no progress inside the window and resumes after.
func TestFreezeWindow(t *testing.T) {
	eng := sim.NewEngine(1)
	n := testNode(eng, 2)
	fab := simnet.NewFabric(eng, simnet.Defaults())
	fab.Attach(n)
	in := NewInjector(eng, Plan{
		Freezes: []Freeze{{Node: 2, At: 50 * sim.Millisecond, Until: 150 * sim.Millisecond}},
	})
	in.Install(fab, map[int]*simos.Node{2: n})
	steps := 0
	n.Spawn("loop", func(tk *simos.Task) {
		var step func()
		step = func() { steps++; tk.Compute(sim.Millisecond, step) }
		tk.Compute(sim.Millisecond, step)
	})

	eng.RunFor(60 * sim.Millisecond)
	before := steps
	if before == 0 {
		t.Fatal("no progress before the freeze")
	}
	eng.RunFor(80 * sim.Millisecond)
	if steps != before {
		t.Fatalf("%d steps inside the freeze window", steps-before)
	}
	eng.RunFor(60 * sim.Millisecond)
	if steps == before {
		t.Fatal("no progress after the thaw at t=150ms")
	}
}

// TestPartitionSeversBothDirections verifies the partition check.
func TestPartitionSeversBothDirections(t *testing.T) {
	eng := sim.NewEngine(1)
	in := NewInjector(eng, Plan{
		Partitions: []Partition{{Start: 0, End: 0, A: []int{1, 2}, B: []int{3}}},
	})
	if v := in.Channel(1, 3, 64); !v.Drop {
		t.Error("1->3 should be severed")
	}
	if v := in.Channel(3, 2, 64); !v.Drop {
		t.Error("3->2 should be severed")
	}
	if v := in.Channel(1, 2, 64); v.Drop {
		t.Error("1->2 is inside group A, must pass")
	}
	if v := in.RDMA(1, 3); !v.Fail {
		t.Error("RDMA 1->3 should fail under partition")
	}
	if v := in.RDMA(2, 1); v.Fail {
		t.Error("RDMA 2->1 inside group A must pass")
	}
}

// TestLinkDropDeterminism: same seed -> same verdict sequence; drop
// rate roughly honors the configured probability.
func TestLinkDropDeterminism(t *testing.T) {
	mk := func() []bool {
		eng := sim.NewEngine(1)
		in := NewInjector(eng, Plan{
			Seed:  42,
			Links: []LinkFault{{From: Any, To: Any, Drop: 0.3}},
		})
		out := make([]bool, 1000)
		for i := range out {
			out[i] = in.Channel(1, 2, 64).Drop
		}
		return out
	}
	a, b := mk(), mk()
	drops := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d diverged across identical seeds", i)
		}
		if a[i] {
			drops++
		}
	}
	if drops < 200 || drops > 400 {
		t.Fatalf("drop rate %d/1000, want ~300", drops)
	}
}

// TestLinkWindow: faults only apply inside [Start, End).
func TestLinkWindow(t *testing.T) {
	eng := sim.NewEngine(1)
	in := NewInjector(eng, Plan{
		Links: []LinkFault{{
			From: Any, To: Any, Drop: 1.0,
			Start: 10 * sim.Millisecond, End: 20 * sim.Millisecond,
		}},
	})
	if in.Channel(1, 2, 64).Drop {
		t.Error("fault active before window start")
	}
	eng.RunFor(15 * sim.Millisecond)
	if !in.Channel(1, 2, 64).Drop {
		t.Error("fault inactive inside window")
	}
	eng.RunFor(10 * sim.Millisecond)
	if in.Channel(1, 2, 64).Drop {
		t.Error("fault active after window end")
	}
}
