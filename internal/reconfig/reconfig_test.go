package reconfig_test

import (
	"testing"

	"rdmamon/internal/reconfig"
	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

// fakeSource reports a configurable index per backend by synthesizing
// records with the right utilisation.
type fakeSource map[int]float64

func (f fakeSource) get(b int) (wire.LoadRecord, bool) {
	idx, ok := f[b]
	if !ok {
		return wire.LoadRecord{}, false
	}
	r := wire.LoadRecord{NumCPU: 2}
	// DefaultWeights: CPU weight 0.35; drive the index via utilisation
	// only: util = idx/0.35 (clamped).
	u := idx / 0.35 * 1000
	if u > 1000 {
		u = 1000
	}
	r.UtilPerMille[0] = uint16(u)
	r.UtilPerMille[1] = uint16(u)
	return r, true
}

func newController(t *testing.T, eng *sim.Engine, src fakeSource, g *reconfig.Groups) (*reconfig.Controller, *int) {
	t.Helper()
	applied := 0
	c := reconfig.New(eng, reconfig.Config{
		Interval:   100 * sim.Millisecond,
		Threshold:  0.1,
		MinNodes:   1,
		SwitchTime: 200 * sim.Millisecond,
	}, src.get, g, func() { applied++ })
	return c, &applied
}

func TestMigratesTowardLoad(t *testing.T) {
	eng := sim.NewEngine(1)
	src := fakeSource{1: 0.9, 2: 0.9, 3: 0.1, 4: 0.1}
	g := &reconfig.Groups{A: []int{1, 2}, B: []int{3, 4}}
	c, applied := newController(t, eng, src, g)
	eng.RunUntil(2 * sim.Second)
	if c.Migrations == 0 {
		t.Fatal("overloaded group A should have received a node")
	}
	if c.BtoA == 0 || c.AtoB != 0 {
		t.Fatalf("migration direction wrong: BtoA=%d AtoB=%d", c.BtoA, c.AtoB)
	}
	if len(g.A) <= 2 || len(g.B) >= 2 {
		t.Fatalf("groups after migration: A=%v B=%v", g.A, g.B)
	}
	if *applied < 2 {
		t.Fatal("apply callback should fire on membership changes")
	}
}

func TestRespectsMinNodes(t *testing.T) {
	eng := sim.NewEngine(2)
	src := fakeSource{1: 0.9, 2: 0.1}
	g := &reconfig.Groups{A: []int{1}, B: []int{2}}
	c, _ := newController(t, eng, src, g)
	eng.RunUntil(2 * sim.Second)
	if c.Migrations != 0 {
		t.Fatal("must not shrink a group below MinNodes")
	}
	if len(g.B) != 1 {
		t.Fatalf("group B = %v", g.B)
	}
}

func TestBalancedGroupsStay(t *testing.T) {
	eng := sim.NewEngine(3)
	src := fakeSource{1: 0.5, 2: 0.5, 3: 0.52, 4: 0.48}
	g := &reconfig.Groups{A: []int{1, 2}, B: []int{3, 4}}
	c, _ := newController(t, eng, src, g)
	eng.RunUntil(3 * sim.Second)
	if c.Migrations != 0 {
		t.Fatalf("balanced groups should not migrate (got %d)", c.Migrations)
	}
}

func TestDrainWindow(t *testing.T) {
	eng := sim.NewEngine(4)
	src := fakeSource{1: 0.9, 2: 0.9, 3: 0.1, 4: 0.1}
	g := &reconfig.Groups{A: []int{1, 2}, B: []int{3, 4}}
	newController(t, eng, src, g)
	// Run just past the first evaluation: the donor node must be
	// draining — in neither group.
	eng.RunUntil(150 * sim.Millisecond)
	if len(g.Draining) != 1 {
		t.Fatalf("draining = %v, want 1 node mid-switch", g.Draining)
	}
	if len(g.A)+len(g.B) != 3 {
		t.Fatalf("node count during drain: A=%v B=%v", g.A, g.B)
	}
	eng.RunUntil(500 * sim.Millisecond)
	if len(g.Draining) != 0 {
		t.Fatal("drain window should have ended")
	}
	if len(g.A)+len(g.B) != 4 {
		t.Fatal("node lost after migration")
	}
}

func TestMigratesLeastLoadedDonor(t *testing.T) {
	eng := sim.NewEngine(5)
	src := fakeSource{1: 0.95, 2: 0.9, 3: 0.3, 4: 0.05}
	g := &reconfig.Groups{A: []int{1, 2}, B: []int{3, 4}}
	c, _ := newController(t, eng, src, g)
	eng.RunUntil(sim.Second)
	if c.Migrations == 0 {
		t.Fatal("no migration")
	}
	// Node 4 (idlest donor) should have moved, not node 3.
	for _, b := range g.B {
		if b == 4 {
			t.Fatalf("least-loaded donor should have moved: B=%v", g.B)
		}
	}
}
