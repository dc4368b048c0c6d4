package livemon

import (
	"testing"
	"time"

	"rdmamon/internal/core"
)

func TestFetchBurstDistinctSamples(t *testing.T) {
	// Under RDMA-Sync every read of the burst samples at its own
	// service instant, so sequence numbers must be k distinct,
	// increasing values — k real samples, not one sample copied k times.
	_, pr := startPair(t, core.RDMASync, synthetic(5))
	const k = 6
	recs, err := pr.FetchBurst(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != k {
		t.Fatalf("got %d records, want %d", len(recs), k)
	}
	seen := make(map[uint32]bool)
	for _, r := range recs {
		if r.NodeID != 7 {
			t.Fatalf("record from node %d", r.NodeID)
		}
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d: burst reads shared a sample", r.Seq)
		}
		seen[r.Seq] = true
	}
}

func TestFetchBurstSocketSchemeRefused(t *testing.T) {
	_, pr := startPair(t, core.SocketSync, synthetic(2))
	if _, err := pr.FetchBurst(4); err == nil {
		t.Fatal("burst fetch over a socket scheme should fail")
	}
}

func TestFetchBurstRecoversAfterInvalidate(t *testing.T) {
	a, pr := startPair(t, core.RDMASync, synthetic(3))
	if _, err := pr.FetchBurst(2); err != nil {
		t.Fatal(err)
	}
	// Invalidate with instant re-pin: the old rkey dies, the burst's
	// re-handshake must pick up the fresh one.
	a.InvalidateMR(time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := pr.FetchBurst(2); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("burst fetch never recovered after MR invalidation")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if pr.Rehandshakes == 0 {
		t.Fatal("recovery should have re-handshaked")
	}
}
