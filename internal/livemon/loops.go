package livemon

import (
	"sync"
	"time"
)

// loops owns a type's background goroutines and its teardown: every
// starts one ticker loop, close stops them all and then tears the owner
// down, once. close is idempotent and safe for concurrent use: every
// caller returns after the teardown, with its error.
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

// close stops every loop, waits for them to return and runs teardown,
// all once; every call returns teardown's error.
func (l *loops) close(teardown func() error) error {
	l.once.Do(func() {
		close(l.stop)
		l.wg.Wait()
		l.err = teardown()
	})
	return l.err
}
