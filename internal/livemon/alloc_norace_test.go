//go:build !race

package livemon

import (
	"fmt"
	"testing"
	"time"

	"rdmamon/internal/core"
)

// TestProbeFetchAllocs pins what a warm one-sided Fetch costs the whole
// process, agent and probe together: the one object the agent's region
// source hands its responder (a fresh record encoding, or the copy of
// the ring window). The probe reuses its read buffer and ring view, and
// the re-handshake retry wrapped around every fetch allocates nothing.
func TestProbeFetchAllocs(t *testing.T) {
	for _, k := range []int{0, 8} {
		t.Run(fmt.Sprintf("ring=%d", k), func(t *testing.T) {
			// An hour-long interval keeps the ring sampler out of the count.
			a, err := StartAgent(Config{Scheme: core.RDMASync, NodeID: 7, Provider: synthetic(3),
				Interval: time.Hour, HistoryK: k})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			p, err := Dial(a.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			fetch := func() {
				if _, err := p.Fetch(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 50; i++ {
				fetch()
			}
			allocs := testing.AllocsPerRun(200, fetch)
			if allocs > 1 {
				t.Fatalf("a warm fetch allocates %.2f objects across both ends, want <= 1", allocs)
			}
			t.Logf("%.2f allocs per fetch", allocs)
		})
	}
}
