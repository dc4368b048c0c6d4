package livemon

import (
	"sync"
	"testing"
	"time"

	"rdmamon/internal/core"
	"rdmamon/internal/procfs"
)

func synthetic(run int) *procfs.Synthetic {
	p := &procfs.Synthetic{}
	p.Set(procfs.Snapshot{
		NumCPU: 2, NrRunning: run, NrTasks: 40,
		UtilPerMille: []int{500, 300},
		MemUsedKB:    1 << 18, MemTotalKB: 1 << 20,
	})
	return p
}

func startPair(t *testing.T, scheme core.Scheme, p procfs.Provider) (*Agent, *Probe) {
	t.Helper()
	a, err := StartAgent(Config{Scheme: scheme, NodeID: 7, Provider: p, Interval: 10 * time.Millisecond})
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

func TestFetchAllSchemes(t *testing.T) {
	for _, s := range core.Schemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			a, pr := startPair(t, s, synthetic(5))
			if pr.Scheme() != s {
				t.Fatalf("probe discovered scheme %v, want %v", pr.Scheme(), s)
			}
			rec, err := pr.Fetch()
			if err != nil {
				t.Fatal(err)
			}
			if rec.NodeID != 7 || rec.NrRunning != 5 || rec.NrTasks != 40 {
				t.Fatalf("record = %+v", rec)
			}
			if rec.UtilMean() != 400 {
				t.Fatalf("util mean = %d, want 400", rec.UtilMean())
			}
			_ = a
		})
	}
}

func TestSyncSchemesSeeFreshValues(t *testing.T) {
	for _, s := range []core.Scheme{core.SocketSync, core.RDMASync, core.ERDMASync} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			p := synthetic(1)
			_, pr := startPair(t, s, p)
			if rec, _ := pr.Fetch(); rec.NrRunning != 1 {
				t.Fatalf("first fetch = %d", rec.NrRunning)
			}
			p.Set(procfs.Snapshot{NumCPU: 2, NrRunning: 9})
			// Sync schemes sample at fetch time: the new value is
			// visible immediately, no refresh wait.
			if rec, _ := pr.Fetch(); rec.NrRunning != 9 {
				t.Fatalf("sync fetch = %d, want fresh 9", rec.NrRunning)
			}
		})
	}
}

func TestAsyncSchemesServeRefreshedBuffer(t *testing.T) {
	for _, s := range []core.Scheme{core.SocketAsync, core.RDMAAsync} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			p := synthetic(1)
			_, pr := startPair(t, s, p)
			p.Set(procfs.Snapshot{NumCPU: 2, NrRunning: 9})
			// Old value may be served until the refresher runs.
			deadline := time.Now().Add(2 * time.Second)
			for {
				rec, err := pr.Fetch()
				if err != nil {
					t.Fatal(err)
				}
				if rec.NrRunning == 9 {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("refresher never picked up new value (last %d)", rec.NrRunning)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

func TestSequenceNumbersAdvance(t *testing.T) {
	_, pr := startPair(t, core.RDMASync, synthetic(1))
	a, _ := pr.Fetch()
	b, _ := pr.Fetch()
	if b.Seq <= a.Seq {
		t.Fatalf("seq did not advance: %d then %d", a.Seq, b.Seq)
	}
}

func TestConcurrentProbes(t *testing.T) {
	a, err := StartAgent(Config{Scheme: core.RDMASync, NodeID: 1, Provider: synthetic(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr, err := Dial(a.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer pr.Close()
			for j := 0; j < 25; j++ {
				if _, err := pr.Fetch(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestAgentCloseStopsRefresher(t *testing.T) {
	leakCheck(t)
	a, err := StartAgent(Config{Scheme: core.SocketAsync, Provider: synthetic(1), Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Double close is safe.
	_ = a.Close()
}

func TestDialBadAddr(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port should fail")
	}
}

func TestLiveEndToEndRealProc(t *testing.T) {
	// Integration: real /proc on Linux, default provider.
	if _, err := procfs.NewLinux("").Snapshot(); err != nil {
		t.Skip("no usable /proc")
	}
	a, err := StartAgent(Config{Scheme: core.ERDMASync, NodeID: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	pr, err := Dial(a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	rec, err := pr.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if rec.NrTasks == 0 || rec.MemTotalKB == 0 {
		t.Fatalf("implausible live record: %+v", rec)
	}
}
