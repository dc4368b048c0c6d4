package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

// TestGrid: grid's means equal a hand fold in (scheme, i, rep) order,
// compared with ==, sequential and parallel. The values are chosen so
// that the float sum depends on the order, which the full-scale figures
// (reps = 3) rely on to stay bit-stable; the quick goldens run reps = 1
// and cannot see it.
func TestGrid(t *testing.T) {
	schemes := []core.Scheme{core.SocketAsync, core.RDMASync}
	const n, reps = 3, 3
	point := func(s core.Scheme, i, rep int) []float64 {
		big := 1e17 + float64(s)*64
		return []float64{
			[]float64{0.1 * float64(i+1), big, -big}[rep],
			[]float64{-big, 0.3 * float64(i+2), big}[rep],
		}
	}
	want := make([]map[core.Scheme][]float64, 2)
	reversed := make([]map[core.Scheme][]float64, 2)
	for k := range want {
		want[k] = make(map[core.Scheme][]float64)
		reversed[k] = make(map[core.Scheme][]float64)
		for _, s := range schemes {
			want[k][s] = make([]float64, n)
			reversed[k][s] = make([]float64, n)
			for i := 0; i < n; i++ {
				for rep := 0; rep < reps; rep++ {
					want[k][s][i] += point(s, i, rep)[k] / reps
					reversed[k][s][i] += point(s, i, reps-1-rep)[k] / reps
				}
			}
		}
	}
	if reflect.DeepEqual(want, reversed) {
		t.Fatal("fixture is order-insensitive: the test would not catch a reordered fold")
	}
	for _, o := range []Options{{Sequential: true}, {}} {
		got := grid(o, schemes, n, reps, point)
		if len(got) != len(want) {
			t.Fatalf("sequential=%v: %d values per point, want %d", o.Sequential, len(got), len(want))
		}
		for k := range want {
			for _, s := range schemes {
				for i := 0; i < n; i++ {
					if got[k][s][i] != want[k][s][i] {
						t.Errorf("sequential=%v value %d %v i=%d: %v, want %v",
							o.Sequential, k, s, i, got[k][s][i], want[k][s][i])
					}
				}
			}
		}
	}
}

// TestWatchSeqs drives the I4 audit through the probers' record hook:
// watermarks are per back-end, per transport and per agent incarnation,
// and also sees every record, regressions included.
func TestWatchSeqs(t *testing.T) {
	c := cluster.New(cluster.Config{Backends: 2, Scheme: core.RDMASync, Seed: 1, NoServers: true})
	restarts := make(map[int]int)
	var regressions []string
	seen := 0
	watchSeqs(c, restarts, func(b int, tr core.Transport, seq, last uint32) {
		regressions = append(regressions, fmt.Sprintf("%d %v %d<%d", b, tr, seq, last))
	}, func(b int, rec wire.LoadRecord, at sim.Time) {
		if at != sim.Time(rec.Seq) {
			t.Errorf("also: back-end %d record %d arrived at %v", b, rec.Seq, at)
		}
		seen++
	})
	feed := func(b int, tr core.Transport, seq uint32) {
		p := c.Monitor.Probers[b]
		p.LastTransport = tr
		p.OnRecord(wire.LoadRecord{Seq: seq}, sim.Time(seq))
	}
	feed(1, core.TransportRDMA, 5)
	feed(1, core.TransportSocket, 3) // another transport: its own watermark
	feed(1, core.TransportRDMA, 3)   // the same seq on RDMA: a regression
	feed(2, core.TransportRDMA, 1)   // another back-end: its own watermark
	restarts[1]++
	feed(1, core.TransportRDMA, 1) // a new incarnation restarts the count
	feed(1, core.TransportRDMA, 0) // regression within the new incarnation

	want := []string{
		fmt.Sprintf("1 %v 3<5", core.TransportRDMA),
		fmt.Sprintf("1 %v 0<1", core.TransportRDMA),
	}
	if !reflect.DeepEqual(regressions, want) {
		t.Errorf("regressions %q, want %q", regressions, want)
	}
	if seen != 6 {
		t.Errorf("also saw %d records, want 6", seen)
	}
}
