package tcpverbs

import (
	"net"
	"sync"
	"testing"
	"time"
)

// Close must not queue behind the operation lock: a monitor shutting
// down next to a frozen back-end would otherwise hang for the whole
// retry budget (3 x 10 s plus backoff at the defaults).

// mutePeer accepts connections and never answers. Each accepted
// connection is handed to onConn, which returns when it is done with
// it; the connection is then held open until the test ends.
func mutePeer(t *testing.T, onConn func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				onConn(conn)
				<-stop
			}()
		}
	}()
	t.Cleanup(func() {
		close(stop)
		ln.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

// closeUnderOp starts a read, waits for started, closes the connection
// and checks that Close returned at once and the read came back with
// ErrClosed well inside its retry budget.
func closeUnderOp(t *testing.T, c *Conn, started <-chan struct{}) {
	t.Helper()
	opErr := make(chan error, 1)
	go func() {
		_, err := c.RDMARead(1, 8)
		opErr <- err
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("the read never reached the peer")
	}
	t0 := time.Now()
	c.Close()
	if d := time.Since(t0); d > 100*time.Millisecond {
		t.Fatalf("Close waited %v behind the in-flight read", d)
	}
	select {
	case err := <-opErr:
		if err != ErrClosed {
			t.Fatalf("interrupted read returned %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("read still blocked 1s after Close")
	}
	if c.Redials != 0 {
		t.Fatalf("closed connection redialed %d times", c.Redials)
	}
	if _, err := c.RDMARead(1, 8); err != ErrClosed {
		t.Fatalf("read after Close returned %v, want ErrClosed", err)
	}
}

func TestCloseInterruptsBlockedRead(t *testing.T) {
	started := make(chan struct{}, 1)
	addr := mutePeer(t, func(conn net.Conn) {
		var b [1]byte
		if n, _ := conn.Read(b[:]); n == 1 {
			started <- struct{}{} // the request is on the wire; no reply follows
		}
	})
	c, err := DialTimeout(addr, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	closeUnderOp(t, c, started)
}

func TestCloseInterruptsRetryBackoff(t *testing.T) {
	started := make(chan struct{}, 1)
	addr := mutePeer(t, func(conn net.Conn) {
		conn.Close() // fail the first attempt fast: the read goes to sleep before its retry
		// Every interleaving must pass; the pause only makes the one
		// under test — Close landing inside the backoff — the usual one.
		time.Sleep(10 * time.Millisecond)
		started <- struct{}{}
	})
	c, err := DialTimeout(addr, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Retry = RetryPolicy{Attempts: 3, Backoff: 20 * time.Second, MaxBackoff: 20 * time.Second}
	closeUnderOp(t, c, started)
}
