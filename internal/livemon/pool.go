package livemon

import (
	"errors"
	"fmt"
	"time"

	"rdmamon/internal/connpool"
	"rdmamon/internal/tcpverbs"
)

// ErrPoolSaturated reports a Get that found no budget for its target
// within acquireTimeout (also the answer once the pool is closed).
var ErrPoolSaturated = errors.New("livemon: connection pool saturated")

// PoolConfig shapes the live connection pool — the deployable
// counterpart of the simulated monitor's pooled transport, driven by
// the same internal/connpool engine (budgets, breakers, epoch fence).
type PoolConfig struct {
	connpool.Config
}

// acquireTimeout bounds how long Get blocks while the pool sheds.
// Budget pressure delays a live caller instead of failing it, but not
// forever.
const acquireTimeout = 2 * time.Second

// ConnPool shares tcpverbs connections across probes under explicit
// resource budgets: max conns/fds, a dial-rate token bucket, idle GC
// and per-target dial breakers. Safe for concurrent use; Close is
// idempotent and releases every pooled connection.
type ConnPool struct {
	pool  *connpool.Pool[string, *tcpverbs.Conn]
	loops *loops // the idle-GC loop, when configured
}

// NewConnPool builds the pool and, when idle GC is configured, starts
// its background collector, every IdleAfterNS/2 (at least 10ms).
func NewConnPool(cfg PoolConfig) *ConnPool {
	p := connpool.New[string, *tcpverbs.Conn](cfg.Config,
		func() int64 { return time.Now().UnixNano() })
	p.OnClose = func(_ string, c *tcpverbs.Conn) { c.Close() }
	cp := &ConnPool{pool: p, loops: newLoops()}
	if cfg.IdleAfterNS > 0 {
		every := max(time.Duration(cfg.IdleAfterNS/2), 10*time.Millisecond)
		cp.loops.every(every, false, p.GC)
	}
	return cp
}

// Get blocks until it holds a leased connection to addr: a pooled one,
// or one it dials under the pool's budgets. Shed verdicts (budget
// pressure, breaker window, backoff) retry on a short sleep so
// pressure delays the caller rather than failing it, bounded by
// acquireTimeout. Dial errors surface immediately — there the target,
// not the budget, is the problem.
func (cp *ConnPool) Get(addr string, hot bool) (connpool.Lease[string, *tcpverbs.Conn], error) {
	var zero connpool.Lease[string, *tcpverbs.Conn]
	deadline := time.Now().Add(acquireTimeout)
	for {
		l, v, reason := cp.pool.Acquire(addr, hot)
		switch v {
		case connpool.Conn:
			return l, nil
		case connpool.Dial:
			c, err := tcpverbs.Dial(addr)
			if err != nil {
				cp.pool.DialFailed(addr)
				return zero, err
			}
			lease, lerr := cp.pool.DialDone(addr, c)
			if lerr != nil {
				return zero, lerr
			}
			return lease, nil
		default:
			if !time.Now().Before(deadline) {
				return zero, fmt.Errorf("%w (shed: %v)", ErrPoolSaturated, reason)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// Put returns a leased connection. A non-nil opErr recycles it (the
// next Get redials) and feeds the target's breaker.
func (cp *ConnPool) Put(l connpool.Lease[string, *tcpverbs.Conn], opErr error) {
	cp.pool.Release(l, opErr)
}

// Close stops the GC loop and recycles every pooled connection.
// Idempotent and safe for concurrent use: every caller returns only
// after teardown has completed once.
func (cp *ConnPool) Close() {
	cp.loops.close(func() error {
		cp.pool.Close()
		return nil
	})
}
