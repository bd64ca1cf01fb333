package transport

import (
	"testing"
	"time"
)

// waiting reports whether the consumer is waiting out a head's due time.
func (q *queue[T]) waiting() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return !q.waitUntil.IsZero()
}

// An item due earlier than the head it is pushed behind becomes the head
// and cuts the consumer's wait short: it pops long before the old head is
// due, and the old head then stays queued.
func TestQueueEarlierItemCutsWait(t *testing.T) {
	q := newQueue[int]()
	q.pushAt(1, time.Now().Add(10*time.Second))
	got := make(chan int, 1)
	go func() {
		v, _ := q.pop()
		got <- v
	}()
	for !q.waiting() {
		time.Sleep(time.Millisecond)
	}
	q.pushAt(2, time.Now())
	select {
	case v := <-got:
		if v != 2 {
			t.Fatalf("popped %d, want the earlier item 2", v)
		}
	case <-time.After(time.Second):
		t.Fatal("an item due now waited out the head due in 10s")
	}
	if q.len() != 1 {
		t.Fatalf("len = %d after one pop, want 1", q.len())
	}
	q.close()
	if v, ok := q.pop(); ok {
		t.Fatalf("closed queue released %d before its due time", v)
	}
}

// Items leave in due-time order and, for equal dues, in push order — so a
// later-pushed item due earlier overtakes, and one due equally does not.
// Every due is past, so no pop waits.
func TestQueueEqualDuesPopInPushOrder(t *testing.T) {
	q := newQueue[int]()
	due := time.Now().Add(-time.Second)
	q.pushAt(1, due)
	q.pushAt(2, due)
	q.pushAt(3, due.Add(-time.Millisecond))
	q.pushAt(4, due)
	q.pushAt(5, due.Add(time.Millisecond))
	q.pushAt(6, due)
	for _, want := range []int{3, 1, 2, 4, 6, 5} {
		if v, ok := q.pop(); !ok || v != want {
			t.Fatalf("pop = %d,%v, want %d", v, ok, want)
		}
	}
}

// An untimed push behind a timed item is due at once, so it pops first.
func TestQueueUntimedOvertakesTimed(t *testing.T) {
	q := newQueue[int]()
	q.pushAt(1, time.Now().Add(time.Hour))
	q.push(2)
	q.push(3)
	for _, want := range []int{2, 3} {
		if v, ok := q.pop(); !ok || v != want {
			t.Fatalf("pop = %d,%v, want %d", v, ok, want)
		}
	}
}

// On a queue with no delay and no timed item, push and pop wait on the
// condition variable alone: no timer is ever made, so a push does no
// channel operation.
func TestQueueUntimedPushMakesNoTimer(t *testing.T) {
	q := newQueue[int]()
	got := make(chan int, 1)
	go func() {
		for i := 0; i < 100; i++ {
			v, _ := q.pop()
			got <- v
		}
	}()
	for i := 0; i < 100; i++ {
		q.push(i)
		if v := <-got; v != i {
			t.Fatalf("popped %d, want %d", v, i)
		}
	}
	q.mu.Lock()
	timer := q.timer
	q.mu.Unlock()
	if timer != nil {
		t.Fatal("untimed pushes and pops made a timer")
	}
}
