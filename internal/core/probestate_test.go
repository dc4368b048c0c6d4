package core

import (
	"errors"
	"testing"

	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

// stateProbe is one probe's transport results, as a driver would see
// them: the RDMA read, the socket round trip (standby or fallback) and
// a re-arm read, each nil for success.
type stateProbe struct{ rdma, socket, rearm error }

// runProbe drives one RDMA-scheme probe through s the way both drivers
// do (see ProbeState's diagram), serving a record stamped at now.
func runProbe(s *ProbeState, o stateProbe, now sim.Time) {
	rec := &wire.LoadRecord{NodeID: 1, KTimeNS: int64(now)}
	if s.UseStandby() {
		if s.ReArmDue() {
			s.ReArmDone(o.rearm)
		}
		s.Apply(now, rec, o.socket, TransportSocket)
		return
	}
	if s.FallBack(o.rdma) && o.socket == nil {
		s.Apply(now, rec, nil, TransportSocket)
		return
	}
	s.Apply(now, rec, o.rdma, TransportRDMA)
}

// ringBytes returns a ring region holding n records stamped 1..n.
func ringBytes(n int) []byte {
	h := wire.NewHistoryRing(8, 1)
	for i := 1; i <= n; i++ {
		h.Push(&wire.LoadRecord{NodeID: 1, Seq: uint32(i), KTimeNS: int64(i)})
	}
	return append([]byte(nil), h.Bytes()...)
}

// TestProbeStateDecisions pins every decision the simulated Prober and
// the live Probe share: the breaker step and its fallback accounting,
// re-arm and fail-back, the outcome's health by transport, the torn
// bound and ring-sample de-duplication.
func TestProbeStateDecisions(t *testing.T) {
	fail := errors.New("transport failed")
	probes := func(s *ProbeState, ps ...stateProbe) {
		for i, o := range ps {
			runProbe(s, o, sim.Time(i+1)*sim.Millisecond)
		}
	}
	tripped := func(n int, rearm error) []stateProbe {
		ps := []stateProbe{{rdma: fail}, {rdma: fail}} // tripAfter 2
		for i := 0; i < n; i++ {
			ps = append(ps, stateProbe{rearm: rearm})
		}
		return ps
	}
	type want struct {
		health                             Health
		fallbacks, rearms, torn, ringFresh uint64
		errors                             int
		tripped                            bool
		trips, failBacks                   uint64
	}
	for _, tc := range []struct {
		name  string
		drive func(*ProbeState)
		want  want
	}{
		{"rdma ok", func(s *ProbeState) { probes(s, stateProbe{}) },
			want{health: Healthy}},
		{"rdma fail, socket ok", func(s *ProbeState) { probes(s, stateProbe{rdma: fail}) },
			want{health: Degraded, fallbacks: 1}},
		{"rdma fail, socket fail", func(s *ProbeState) { probes(s, stateProbe{rdma: fail, socket: fail}) },
			want{health: Suspect, fallbacks: 1, errors: 1}},
		{"trip at TripAfter", func(s *ProbeState) { probes(s, tripped(1, nil)...) },
			want{health: Degraded, fallbacks: 3, tripped: true, trips: 1}},
		{"re-arm every ReArmEvery-th tripped probe", func(s *ProbeState) { probes(s, tripped(9, fail)...) },
			want{health: Degraded, fallbacks: 11, rearms: 2, tripped: true, trips: 1}},
		{"fail back after FailBackAfter", func(s *ProbeState) {
			probes(s, append(tripped(8, nil), stateProbe{})...)
		}, want{health: Healthy, fallbacks: 10, rearms: 2, trips: 1, failBacks: 1}},
		{"torn bound, then ErrTorn is an error", func(s *ProbeState) {
			for tries := 0; s.RetryTorn(wire.ErrTorn, tries); tries++ {
			}
			s.Apply(sim.Millisecond, nil, wire.ErrTorn, TransportRDMA)
		}, want{health: Suspect, torn: maxTornRetries, errors: 1}},
		{"a repeated ring window adds no samples", func(s *ProbeState) {
			var rec wire.LoadRecord
			for i := 0; i < 2; i++ {
				if err := s.DecodeRead(&rec, ringBytes(3), true); err != nil || rec.Seq != 3 {
					t.Fatalf("ring decode: seq %d, %v", rec.Seq, err)
				}
			}
			s.Apply(sim.Millisecond, &rec, nil, TransportRDMA)
		}, want{health: Healthy, ringFresh: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &ProbeState{Scheme: RDMASync, Failover: &Failover{}}
			tc.drive(s)
			fo := s.Failover
			got := want{s.Health.State(), s.Fallbacks, s.ReArms, s.TornRetries, s.RingSamples,
				s.Errors, fo.Tripped(), fo.Trips, fo.FailBacks}
			if got != tc.want {
				t.Fatalf("got  %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// TestProbeStateUnarmed: without a breaker a failed read is a plain
// failure, never a fallback, and a socket scheme's record is Healthy.
func TestProbeStateUnarmed(t *testing.T) {
	s := &ProbeState{Scheme: RDMASync}
	if s.UseStandby() || s.FallBack(errors.New("x")) || s.Fallbacks != 0 {
		t.Fatal("an unarmed state routed a probe to the standby")
	}
	sock := &ProbeState{Scheme: SocketSync}
	if rec := sock.Apply(1, &wire.LoadRecord{Seq: 4}, nil, TransportSocket); rec == nil || rec.Seq != 4 ||
		sock.Health.State() != Healthy {
		t.Fatalf("socket scheme outcome: rec=%v health=%v", rec, sock.Health.State())
	}
	if got, at, ok := sock.Latest(); !ok || got.Seq != 4 || at != 1 {
		t.Fatalf("Latest = %v, %d, %v", got, at, ok)
	}
}

// TestPushGate pins the change test both pushers share: the first
// sample and a threshold crossing push, a quiet sample skips until the
// heartbeat (counted from when the last push was scored), a failed
// write is not a baseline, and the pusher does not count itself in the
// run queue.
func TestPushGate(t *testing.T) {
	g := NewPushGate(DefaultChangeThreshold, 100*sim.Millisecond)
	check := func(run uint16, now sim.Time) (*wire.PushRecord, bool) {
		pr := &wire.PushRecord{Load: wire.LoadRecord{NumCPU: 1, NrRunning: run}}
		return pr, g.Check(pr, now*sim.Millisecond)
	}
	pr, push := check(3, 0)
	if !push || pr.Load.NrRunning != 2 || pr.Load.Seq != 1 || pr.PushSeq != 1 || pr.PushedNS != 0 {
		t.Fatalf("first sample: push=%v record %+v", push, pr)
	}
	g.Pushed(errors.New("write refused"))
	if _, push = check(3, 10); !push {
		t.Fatal("a sample after a failed write was not pushed")
	}
	g.Pushed(nil)
	if _, push = check(3, 50); push {
		t.Fatal("a quiet sample inside the heartbeat was pushed")
	}
	if pr, push = check(9, 60); !push || pr.PushSeq != 3 {
		t.Fatalf("a threshold crossing: push=%v PushSeq=%d", push, pr.PushSeq)
	}
	g.Pushed(nil)
	if _, push = check(9, 159); push {
		t.Fatal("heartbeat fired early")
	}
	if _, push = check(9, 160); !push {
		t.Fatal("heartbeat did not fire 100 ms after the last push was scored")
	}
	if g.Pushes != 2 || g.Skips != 2 || g.Errors != 1 {
		t.Fatalf("pushes/skips/errors = %d/%d/%d, want 2/2/1", g.Pushes, g.Skips, g.Errors)
	}
}
