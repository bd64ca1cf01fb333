package transport

import (
	"sync"
	"time"
)

// queue is an unbounded queue with blocking pop and close semantics.
// Senders never block, which rules out the queue-full deadlocks a bounded
// channel could introduce between sites that are simultaneously sending to
// each other; memory is bounded in practice by the protocol's
// request/response discipline.
//
// Every item carries a due time, and the queue keeps its items ordered by
// it, stable for equal dues: pop returns the head once it is due. An item
// pushed without a due time is due at once; a queue built with a delay adds
// that delay to every item's due time, so k items pushed together all
// become poppable after ~1 delay — latency, not spacing. Items pushed at
// once go to the tail, so a queue that holds no timed item is a plain FIFO
// whose pushes never read the clock. A consumer waiting out a head is woken
// early only by a push that makes an earlier head, or by close. Timed items
// want one consumer (the waits share a timer).
//
// Storage is a head-indexed slice: pop reads items[head] and zeroes the
// slot (so delivered envelopes are released for GC immediately) instead of
// copy-shifting the whole backing slice, which made draining a burst of n
// queued messages O(n²). The dead prefix is reclaimed when the queue
// empties and folded away when the slice would otherwise grow.
type queue[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond // wakes a consumer waiting on an empty queue
	delay  time.Duration
	items  []timed[T]
	head   int
	closed bool
	// waitUntil is the head due time the consumer is sleeping toward on
	// timer, zero while it is not in a timed wait.
	waitUntil time.Time
	timer     *time.Timer // made by the first timed wait
}

// timed is a queued item and the moment it may be popped; the zero time
// means at once, and costs pop no clock read.
type timed[T any] struct {
	item T
	due  time.Time
}

func newQueue[T any]() *queue[T] { return newDelayQueue[T](0) }

// newDelayQueue returns a queue whose items become poppable delay after
// their due time.
func newDelayQueue[T any](delay time.Duration) *queue[T] {
	q := &queue[T]{delay: delay}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push adds an item due at once (plus the queue's delay). Pushing to a
// closed queue drops the item and reports false.
func (q *queue[T]) push(item T) bool { return q.pushAt(item, time.Time{}) }

// pushAt adds an item that becomes poppable at due plus the queue's delay;
// the zero due means at push time. It goes behind every item due no later.
func (q *queue[T]) pushAt(item T, due time.Time) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	if due.IsZero() && (q.delay > 0 || q.head < len(q.items) && !q.items[len(q.items)-1].due.IsZero()) {
		// "At once" is now when a delay counts from it or a timed item is
		// queued to be ordered against.
		due = time.Now()
	}
	due = due.Add(q.delay)
	if q.head > 0 && len(q.items) == cap(q.items) {
		// About to grow: fold the dead prefix away first so the backing
		// array only grows when there are genuinely more live items.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	// Insert after the last item due no later than this one. Untimed items
	// sort first, so an untimed push is an append.
	i := len(q.items)
	q.items = append(q.items, timed[T]{})
	for i > q.head && q.items[i-1].due.After(due) {
		q.items[i] = q.items[i-1]
		i--
	}
	q.items[i] = timed[T]{item: item, due: due}
	if i == q.head && due.Before(q.waitUntil) {
		q.timer.Reset(0) // a new, earlier head: cut the consumer's wait short
	}
	q.cond.Signal()
	return true
}

// pop removes the head, blocking while the queue is empty or its head is
// not yet due. It returns ok=false once the queue is closed and every item
// already due has been drained: items still waiting out their due time
// when the queue closes are discarded — they were on the wire when the
// network went away — so close never waits for a due time to pass.
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
		due := q.items[q.head].due
		if due.IsZero() {
			break
		}
		wait := time.Until(due)
		if wait <= 0 {
			break
		}
		if q.closed {
			return item, false
		}
		// Pushes go on during the wait, and one may put an earlier item at
		// the head and fire the timer early; a wake may also be stale. So
		// the loop looks at the head afresh after every wait.
		if q.timer == nil {
			q.timer = time.NewTimer(wait)
		} else {
			q.timer.Reset(wait)
		}
		q.waitUntil = due
		q.mu.Unlock()
		<-q.timer.C
		q.mu.Lock()
		q.waitUntil = time.Time{}
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

// close marks the queue closed; blocked pops drain the items already due
// and then return ok=false.
func (q *queue[T]) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	if !q.waitUntil.IsZero() {
		q.timer.Reset(0)
	}
	q.cond.Broadcast()
}

// len returns the current queue depth, items not yet due included.
func (q *queue[T]) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}
