package experiments

import "testing"

// TestScaleOutQuick runs the pooled scale-out at its quick size and
// asserts the connection-lifecycle criteria hold: zero stale-epoch
// reads, the fence exercised by churn, dial rate within budget, the
// hot staleness SLO through the fault phases, and nothing leaked.
func TestScaleOutQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment; skipped with -short")
	}
	d := Scale(Options{Quick: true, Backends: 1024})
	if d.Out == nil {
		t.Fatal("1024 back-ends did not select the pooled scale-out path")
	}
	if d.Failed {
		t.Fatalf("scale-out reported violations:\n%v", d.Notes)
	}
	if got := len(d.Out.Phases); got != 6 {
		t.Fatalf("ran %d phases, want 6", got)
	}
	if d.Out.FenceRejects == 0 {
		t.Fatal("churn never exercised the epoch fence")
	}
	if d.Out.StaleEpochReads != 0 {
		t.Fatalf("%d stale-epoch reads", d.Out.StaleEpochReads)
	}
}

// TestScaleOutKnobs exercises the -max-conns pin: an explicit
// connection budget selects the scale-out even below the fleet
// threshold, the budget is what the run enforces, and every phase keeps
// its dial rate within the fleet-derived budget: max(fleet, 512) = 512
// dials/s plus a quarter of that as burst, 640 in any 1s window.
func TestScaleOutKnobs(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment; skipped with -short")
	}
	d := Scale(Options{Quick: true, Backends: 512, MaxConns: 96})
	if d.Out == nil {
		t.Fatal("an explicit connection budget did not select the scale-out path")
	}
	if d.Failed {
		t.Fatalf("scale-out reported violations:\n%v", d.Notes)
	}
	if d.Out.MaxConns != 96 || d.Out.DialsPerSec != 512 {
		t.Fatalf("budgets not honored: %+v", d.Out)
	}
	budget := uint64(512 + 512/4)
	for _, ph := range d.Out.Phases {
		if ph.WindowMax > budget {
			t.Fatalf("phase %s: %d dials/s exceeds budget %d", ph.Name, ph.WindowMax, budget)
		}
	}
}
