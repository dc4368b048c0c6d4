package livemon

import (
	"sync"
	"time"
)

// loops owns a type's background goroutines and its teardown: every
// starts one ticker loop, close tears the owner down and then waits for
// the loops, once. close is idempotent and safe for concurrent use:
// every caller returns after the loops, with the teardown's error.
type loops struct {
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
	err  error
}

func newLoops() *loops { return &loops{stop: make(chan struct{})} }

// every runs f every d on its own goroutine until close; with now set,
// f also runs once at the start.
func (l *loops) every(d time.Duration, now bool, f func()) {
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		t := time.NewTicker(d)
		defer t.Stop()
		if now {
			f()
		}
		for {
			select {
			case <-l.stop:
				return
			case <-t.C:
				f()
			}
		}
	}()
}

// stopped reports whether close has begun; a long f checks it between
// steps.
func (l *loops) stopped() bool {
	select {
	case <-l.stop:
		return true
	default:
		return false
	}
}

// close stops every loop, runs teardown, then waits for the loops, all
// once; every call returns teardown's error. A connection teardown
// closes fails a loop's operation in flight, retries included, at once.
func (l *loops) close(teardown func() error) error {
	l.once.Do(func() {
		close(l.stop)
		l.err = teardown()
		l.wg.Wait()
	})
	return l.err
}
