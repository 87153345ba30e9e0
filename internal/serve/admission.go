package serve

import (
	"errors"
	"sync"
	"time"

	"embellish/internal/wire"
)

// Bounded admission control: instead of refusing load at a hard
// connection cap, requests past the inflight limit park in a FIFO queue
// of configurable depth and wait up to a queue timeout for an execution
// slot. Overload then degrades in a controlled order — queue, then
// shed-with-retry-hint — and the latency of ACCEPTED requests stays
// bounded by queue depth × service time instead of collapsing
// (docs/OPERATIONS.md).

// DefaultQueueDepth is the admission-queue depth applied when
// Config.QueueDepth is zero and admission control is enabled.
const DefaultQueueDepth = 256

// DefaultQueueTimeout is the per-request queue wait bound applied when
// Config.QueueTimeout is zero and admission control is enabled.
const DefaultQueueTimeout = time.Second

// Shed reasons. Their texts are the refusals the loop sends.
var (
	errQueueFull    = errors.New(wire.OverloadRefusal + ": admission queue full; retry later")
	errQueueTimeout = errors.New(wire.OverloadRefusal + ": queue wait exceeded; retry later")
	errQueueClosed  = errors.New(wire.OverloadRefusal + ": server is shutting down")
)

// waiter is one parked request. granted is written under the
// admission lock before ready is closed, so a waiter woken by the
// close reads it race-free.
type waiter struct {
	ready   chan struct{}
	granted bool
}

// admission is the bounded FIFO queue in front of request execution.
// Slots transfer directly from a releasing request to the head waiter
// (inflight never dips below max while the queue is non-empty), so
// FIFO order is exact and a release never races a fresh arrival for
// the freed slot.
type admission struct {
	max     int           // execution slots
	depth   int           // waiters allowed beyond the slots
	timeout time.Duration // max queue wait; negative waits forever

	mu       sync.Mutex
	inflight int
	waiters  []*waiter
	closed   bool
}

func newAdmission(max, depth int, timeout time.Duration) *admission {
	return &admission{max: max, depth: depth, timeout: timeout}
}

// acquire obtains an execution slot, parking in the FIFO queue when
// all slots are busy. It returns the time spent queued (zero for an
// immediate grant) and one of errQueueFull, errQueueTimeout or
// errQueueClosed when the request must be shed instead.
func (a *admission) acquire() (time.Duration, error) {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return 0, errQueueClosed
	}
	if a.inflight < a.max {
		a.inflight++
		a.mu.Unlock()
		return 0, nil
	}
	if len(a.waiters) >= a.depth {
		a.mu.Unlock()
		return 0, errQueueFull
	}
	w := &waiter{ready: make(chan struct{})}
	a.waiters = append(a.waiters, w)
	a.mu.Unlock()

	start := time.Now()
	var timeoutC <-chan time.Time
	if a.timeout >= 0 {
		timer := time.NewTimer(a.timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	select {
	case <-w.ready:
		// granted was written under the lock before the close; the
		// close orders that write before this read.
		if w.granted {
			return time.Since(start), nil
		}
		return time.Since(start), errQueueClosed
	case <-timeoutC:
		a.mu.Lock()
		if w.granted {
			// The grant raced the timer: the slot is ours, take it.
			a.mu.Unlock()
			return time.Since(start), nil
		}
		for i, x := range a.waiters {
			if x == w {
				a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
				break
			}
		}
		a.mu.Unlock()
		return time.Since(start), errQueueTimeout
	}
}

// release returns an execution slot: the head waiter inherits it
// directly (inflight is unchanged), or inflight drops when nobody is
// parked.
func (a *admission) release() {
	a.mu.Lock()
	if len(a.waiters) > 0 {
		w := a.waiters[0]
		a.waiters = a.waiters[1:]
		w.granted = true
		close(w.ready)
		a.mu.Unlock()
		return
	}
	a.inflight--
	a.mu.Unlock()
}

// queued reports the number of currently parked requests.
func (a *admission) queued() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.waiters)
}

// abort sheds every parked waiter and refuses all future acquires —
// the shutdown path, run AFTER the drain so waiters normally empty out
// through granted slots first.
func (a *admission) abort() {
	a.mu.Lock()
	a.closed = true
	ws := a.waiters
	a.waiters = nil
	a.mu.Unlock()
	for _, w := range ws {
		close(w.ready)
	}
}
