package transport

import (
	"sync"
	"time"
)

// queue is an unbounded FIFO with blocking pop and close semantics.
// Senders never block, which rules out the queue-full deadlocks a bounded
// channel could introduce between sites that are simultaneously sending to
// each other; memory is bounded in practice by the protocol's
// request/response discipline.
//
// A queue built with a delay holds every item until delay after its push:
// push stamps the due time under the lock, so due times are non-decreasing
// in queue order, and pop waits out the head's. Items therefore leave in
// push order, each no earlier than its due time, and k items pushed
// together all become poppable after ~1 delay — latency, not spacing. A
// delaying queue has one consumer (the waits share a timer).
//
// Storage is a head-indexed slice: pop reads items[head] and zeroes the
// slot (so delivered envelopes are released for GC immediately) instead of
// copy-shifting the whole backing slice, which made draining a burst of n
// queued messages O(n²). The dead prefix is reclaimed when the queue
// empties and folded away when the slice would otherwise grow.
type queue[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	delay  time.Duration
	items  []timed[T]
	head   int
	closed bool
	done   chan struct{} // closed by close, to cut a due-time wait short
	timer  *time.Timer   // the consumer's due-time wait, made on first use
}

// timed is a queued item and the moment it may be popped; the zero time
// means at once, and costs pop no clock read.
type timed[T any] struct {
	item T
	due  time.Time
}

func newQueue[T any]() *queue[T] { return newDelayQueue[T](0) }

// newDelayQueue returns a queue whose items become poppable delay after
// their push.
func newDelayQueue[T any](delay time.Duration) *queue[T] {
	q := &queue[T]{delay: delay, done: make(chan struct{})}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends an item. Pushing to a closed queue drops the item and
// reports false.
func (q *queue[T]) push(item T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	if q.head > 0 && len(q.items) == cap(q.items) {
		// About to grow: fold the dead prefix away first so the backing
		// array only grows when there are genuinely more live items.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	it := timed[T]{item: item}
	if q.delay > 0 {
		it.due = time.Now().Add(q.delay)
	}
	q.items = append(q.items, it)
	q.cond.Signal()
	return true
}

// pop removes the oldest item, blocking while the queue is empty or its
// head is not yet due. It returns ok=false once the queue is closed and
// every item already due has been drained: items still waiting out their
// delay when the queue closes are discarded — they were on the wire when
// the network went away — so close never waits for a delay to pass.
func (q *queue[T]) pop() (item T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for q.head == len(q.items) && !q.closed {
			q.cond.Wait()
		}
		if q.head == len(q.items) {
			return item, false
		}
		var wait time.Duration
		if due := q.items[q.head].due; !due.IsZero() {
			wait = time.Until(due)
		}
		if wait <= 0 {
			break
		}
		if q.closed {
			return item, false
		}
		// Only this goroutine pops, and later items are due no earlier, so
		// the head is still the head after the wait; pushes go on meanwhile.
		q.mu.Unlock()
		q.waitOrClosed(wait)
		q.mu.Lock()
	}
	item = q.items[q.head].item
	// Zero the slot so the backing array does not pin the delivered
	// envelope.
	q.items[q.head] = timed[T]{}
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return item, true
}

// waitOrClosed blocks for d or until the queue closes.
func (q *queue[T]) waitOrClosed(d time.Duration) {
	if q.timer == nil {
		q.timer = time.NewTimer(d)
	} else {
		q.timer.Reset(d)
	}
	select {
	case <-q.timer.C:
	case <-q.done:
		q.timer.Stop()
	}
}

// close marks the queue closed; blocked pops drain the items already due
// and then return ok=false.
func (q *queue[T]) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	close(q.done)
	q.cond.Broadcast()
}

// len returns the current queue depth, items not yet due included.
func (q *queue[T]) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}
