package livemon

import (
	"net"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain starts the runtime's network poller before any test runs.
// The first network operation of a process opens the poller's epoll
// instance and its wake-up eventfd, two descriptors that stay open for
// the life of the process: a leakCheck baseline taken before them
// counted them as leaked by whichever test touched the network first
// ("fds 4 -> 6" with no goroutine left over).
func TestMain(m *testing.M) {
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		ln.Close()
	}
	os.Exit(m.Run())
}

// openFDs counts the process's open file descriptors via /proc (-1
// where /proc is unavailable, which disables fd accounting).
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// leakCheck snapshots the goroutine and fd counts and registers a
// cleanup that fails the test if either is still elevated once
// teardown has had time to settle. Tests that start monitors, agents
// or pools call it first, so a Close that strands a poller goroutine
// or leaks a connection fails loudly instead of accumulating.
func leakCheck(t *testing.T) {
	t.Helper()
	goros := runtime.NumGoroutine()
	fds := openFDs()
	t.Cleanup(func() {
		deadline := time.Now().Add(3 * time.Second)
		for {
			g, f := runtime.NumGoroutine(), openFDs()
			if g <= goros && f <= fds {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("leak after close: goroutines %d -> %d, fds %d -> %d\n%s",
					goros, g, fds, f, buf[:n])
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
}
