package livemon

import (
	"testing"
	"time"

	"rdmamon/internal/core"
	"rdmamon/internal/procfs"
)

// startRingPair launches an agent publishing a K-slot history ring and
// a probe dialed to it.
func startRingPair(t *testing.T, scheme core.Scheme, k int, p procfs.Provider) (*Agent, *Probe) {
	t.Helper()
	a, err := StartAgent(Config{
		Scheme: scheme, NodeID: 7, Provider: p,
		Interval: 5 * time.Millisecond, HistoryK: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	pr, err := Dial(a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pr.Close() })
	return a, pr
}

func TestHistoryHandshakeAndFetch(t *testing.T) {
	for _, s := range []core.Scheme{core.RDMAAsync, core.RDMASync, core.ERDMASync} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			_, pr := startRingPair(t, s, 8, synthetic(5))
			if pr.RingK() != 8 {
				t.Fatalf("handshake ringK = %d, want 8", pr.RingK())
			}
			rec, err := pr.Fetch()
			if err != nil {
				t.Fatal(err)
			}
			if rec.NodeID != 7 || rec.NrRunning != 5 {
				t.Fatalf("newest ring record = %+v", rec)
			}
			if pr.st.RingSamples == 0 {
				t.Fatal("ring fetch accounted no samples")
			}
		})
	}
}

func TestHistoryWindowFillsAndOrders(t *testing.T) {
	leakCheck(t)
	_, pr := startRingPair(t, core.ERDMASync, 4, synthetic(2))
	deadline := time.Now().Add(2 * time.Second)
	for {
		v, err := pr.FetchHistory()
		if err != nil {
			t.Fatal(err)
		}
		if v.Count == 4 {
			for i := 1; i < v.Count; i++ {
				if v.Records[i].KTimeNS > v.Records[i-1].KTimeNS {
					t.Fatalf("window not newest-first at slot %d", i)
				}
				if v.Records[i].Seq >= v.Records[i-1].Seq {
					t.Fatalf("sequence not descending at slot %d", i)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("window never filled: %d/4 records", v.Count)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHistoryAmortizesWorkRequests(t *testing.T) {
	a, pr := startRingPair(t, core.RDMASync, 8, synthetic(3))
	time.Sleep(60 * time.Millisecond) // let the sampler fill the window
	reads0, _, _ := a.verbs.Stats()
	recs, err := pr.FetchBurst(8)
	if err != nil {
		t.Fatal(err)
	}
	reads1, _, _ := a.verbs.Stats()
	// The burst is served from the history region: many samples, one
	// served read, where the point-record path would post 8.
	if got := reads1 - reads0; got != 1 {
		t.Fatalf("burst cost %d served reads, want 1", got)
	}
	if len(recs) < 2 {
		t.Fatalf("burst returned %d records, want a filled window", len(recs))
	}
}

func TestHistoryFetchSurvivesInvalidate(t *testing.T) {
	a, pr := startRingPair(t, core.ERDMASync, 4, synthetic(1))
	if _, err := pr.FetchHistory(); err != nil {
		t.Fatal(err)
	}
	a.InvalidateMR(20 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		v, err := pr.FetchHistory()
		if err == nil && v.Epoch == 1 {
			return // re-handshook onto the re-pinned region, epoch bumped
		}
		if time.Now().After(deadline) {
			t.Fatalf("never recovered post-repin window: epoch=%d err=%v", v.Epoch, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHistoryRequiresRing(t *testing.T) {
	_, pr := startPair(t, core.RDMASync, synthetic(1))
	if pr.RingK() != 0 {
		t.Fatalf("ring-less agent advertises ringK %d", pr.RingK())
	}
	if _, err := pr.FetchHistory(); err == nil {
		t.Fatal("FetchHistory succeeded against a ring-less agent")
	}
}

func TestHistoryIgnoredBySocketSchemes(t *testing.T) {
	a, err := StartAgent(Config{
		Scheme: core.SocketAsync, NodeID: 3, Provider: synthetic(1),
		Interval: 5 * time.Millisecond, HistoryK: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.RingK() != 0 {
		t.Fatalf("socket agent kept HistoryK %d", a.RingK())
	}
}

// TestRingSamplesCountFreshOnly: RingSamples counts samples new to the
// probe, not window slots read. An RDMA-Async agent with an hour-long
// refresh interval serves the same window twice, so the second fetch
// adds nothing.
func TestRingSamplesCountFreshOnly(t *testing.T) {
	a, err := StartAgent(Config{Scheme: core.RDMAAsync, NodeID: 7, Provider: synthetic(2),
		Interval: time.Hour, HistoryK: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	pr, err := Dial(a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	if _, err := pr.Fetch(); err != nil {
		t.Fatal(err)
	}
	first := pr.st.RingSamples
	if first == 0 {
		t.Fatal("the first ring fetch folded no samples")
	}
	if _, err := pr.Fetch(); err != nil {
		t.Fatal(err)
	}
	if pr.st.RingSamples != first {
		t.Fatalf("a repeated window added %d samples", pr.st.RingSamples-first)
	}
}
