package livemon

import (
	"testing"
	"time"

	"rdmamon/internal/core"
)

func TestMonitorPollsFleet(t *testing.T) {
	var agents []*Agent
	var targets []string
	for i := 0; i < 3; i++ {
		a, err := StartAgent(Config{
			Scheme:   core.RDMASync,
			NodeID:   uint16(i + 1),
			Provider: synthetic(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
		targets = append(targets, a.Addr())
	}
	defer func() {
		for _, a := range agents {
			a.Close()
		}
	}()
	m, dialErrs := NewMonitor(targets, MonitorConfig{Interval: 10 * time.Millisecond})
	defer m.Close()
	if len(dialErrs) != 0 {
		t.Fatalf("dial errors: %v", dialErrs)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		all := true
		for i, tgt := range targets {
			rec, at, ok := m.Latest(tgt)
			if !ok {
				all = false
				break
			}
			if int(rec.NodeID) != i+1 || at.IsZero() {
				t.Fatalf("target %s record %+v", tgt, rec)
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("monitor never collected all records")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMonitorSurvivesAgentDeath(t *testing.T) {
	a, err := StartAgent(Config{Scheme: core.RDMASync, NodeID: 1, Provider: synthetic(1)})
	if err != nil {
		t.Fatal(err)
	}
	m, dialErrs := NewMonitor([]string{a.Addr()}, MonitorConfig{Interval: 5 * time.Millisecond})
	defer m.Close()
	if len(dialErrs) != 0 {
		t.Fatal(dialErrs)
	}
	target := a.Addr()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, _, ok := m.Latest(target); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no record before agent death")
		}
		time.Sleep(2 * time.Millisecond)
	}
	a.Close()
	deadline = time.Now().Add(2 * time.Second)
	for {
		if m.Err(target) != nil {
			break // error surfaced, monitor still alive
		}
		if time.Now().After(deadline) {
			t.Fatal("fetch error never surfaced")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Cached record remains available.
	if _, _, ok := m.Latest(target); !ok {
		t.Fatal("cached record lost on error")
	}
}

func TestMonitorBadTargets(t *testing.T) {
	m, dialErrs := NewMonitor([]string{"127.0.0.1:1"}, MonitorConfig{Interval: 10 * time.Millisecond})
	defer m.Close()
	if len(dialErrs) != 1 {
		t.Fatalf("dial errors = %v", dialErrs)
	}
	if _, _, ok := m.Latest("127.0.0.1:1"); ok || m.Health("127.0.0.1:1") != core.Quarantined {
		t.Fatal("an undialed target reports a record or a dispatchable health")
	}
}
