package lockmgr

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minraid/internal/core"
)

func TestSharedLocksCoexist(t *testing.T) {
	m := New(time.Second)
	defer m.Close()
	if err := m.Acquire(1, 5, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, 5, Shared); err != nil {
		t.Fatal(err)
	}
	if mode, ok := m.Holds(1, 5); !ok || mode != Shared {
		t.Errorf("txn 1 holds %v %v", mode, ok)
	}
	if mode, ok := m.Holds(2, 5); !ok || mode != Shared {
		t.Errorf("txn 2 holds %v %v", mode, ok)
	}
}

func TestExclusiveBlocksOthers(t *testing.T) {
	m := New(50 * time.Millisecond)
	defer m.Close()
	if err := m.Acquire(1, 3, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, 3, Shared); !errors.Is(err, ErrTimeout) {
		t.Errorf("shared under exclusive: %v", err)
	}
	if err := m.Acquire(3, 3, Exclusive); !errors.Is(err, ErrTimeout) {
		t.Errorf("exclusive under exclusive: %v", err)
	}
}

func TestReleaseWakesWaiter(t *testing.T) {
	m := New(5 * time.Second)
	defer m.Close()
	m.Acquire(1, 7, Exclusive)
	got := make(chan error, 1)
	go func() { got <- m.Acquire(2, 7, Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	m.Release(1)
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never woke")
	}
	if _, ok := m.Holds(1, 7); ok {
		t.Error("released lock still held")
	}
	if mode, ok := m.Holds(2, 7); !ok || mode != Exclusive {
		t.Error("waiter did not get the lock")
	}
}

func TestReacquireIsNoop(t *testing.T) {
	m := New(time.Second)
	defer m.Close()
	m.Acquire(1, 1, Exclusive)
	if err := m.Acquire(1, 1, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, 1, Shared); err != nil {
		t.Fatal(err)
	}
	// Still exclusive after the weaker re-acquire.
	if mode, _ := m.Holds(1, 1); mode != Exclusive {
		t.Error("downgraded")
	}
}

func TestUpgradeSoleHolder(t *testing.T) {
	m := New(time.Second)
	defer m.Close()
	m.Acquire(1, 2, Shared)
	if err := m.Acquire(1, 2, Exclusive); err != nil {
		t.Fatal(err)
	}
	if mode, _ := m.Holds(1, 2); mode != Exclusive {
		t.Error("upgrade did not take")
	}
}

func TestUpgradeWaitsForReaders(t *testing.T) {
	m := New(5 * time.Second)
	defer m.Close()
	m.Acquire(1, 2, Shared)
	m.Acquire(2, 2, Shared)
	got := make(chan error, 1)
	go func() { got <- m.Acquire(1, 2, Exclusive) }()
	select {
	case <-got:
		t.Fatal("upgrade granted with another reader present")
	case <-time.After(30 * time.Millisecond):
	}
	m.Release(2)
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("upgrade never granted")
	}
}

func TestFIFOFairnessNoReaderOvertaking(t *testing.T) {
	m := New(5 * time.Second)
	defer m.Close()
	m.Acquire(1, 4, Shared)
	// Writer queues behind the reader.
	writerDone := make(chan error, 1)
	go func() { writerDone <- m.Acquire(2, 4, Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	// A new reader must NOT overtake the queued writer.
	readerDone := make(chan error, 1)
	go func() { readerDone <- m.Acquire(3, 4, Shared) }()
	select {
	case <-readerDone:
		t.Fatal("late reader overtook queued writer (writer starvation)")
	case <-time.After(30 * time.Millisecond):
	}
	m.Release(1)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	m.Release(2)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
}

// cycleWait is one blocked Acquire of a waits-for cycle.
type cycleWait struct {
	txn  core.TxnID
	item core.ItemID
}

// endCycle runs each wait in its own goroutine and releases each
// transaction as its wait ends, as a caller does on abort or commit. Every
// item is already held, so nothing is granted before the first release:
// the first wait to end must time out, the others end granted or timed out,
// and the table empties.
func endCycle(t *testing.T, m *Manager, waits []cycleWait) {
	t.Helper()
	type done struct {
		txn core.TxnID
		err error
	}
	ends := make(chan done, len(waits))
	for _, w := range waits {
		go func() { ends <- done{w.txn, m.Acquire(w.txn, w.item, Exclusive)} }()
	}
	for i := range waits {
		select {
		case d := <-ends:
			if i == 0 && !errors.Is(d.err, ErrTimeout) {
				t.Fatalf("first wait to end: txn %d got %v, want ErrTimeout", d.txn, d.err)
			}
			if d.err != nil && !errors.Is(d.err, ErrTimeout) {
				t.Fatalf("txn %d got %v", d.txn, d.err)
			}
			m.Release(d.txn)
		case <-time.After(5 * time.Second):
			t.Fatal("cycle never broken")
		}
	}
	wantStats(t, m, 0, 0)
}

// TestDeadlockEndsInTimeout: two single-item Acquire calls out of order
// close a cycle, and the lock-wait timeout breaks it.
func TestDeadlockEndsInTimeout(t *testing.T) {
	m := New(50 * time.Millisecond)
	defer m.Close()
	m.Acquire(1, 10, Exclusive)
	m.Acquire(2, 20, Exclusive)
	endCycle(t, m, []cycleWait{{1, 20}, {2, 10}})
}

func TestThreeWayDeadlock(t *testing.T) {
	m := New(50 * time.Millisecond)
	defer m.Close()
	m.Acquire(1, 1, Exclusive)
	m.Acquire(2, 2, Exclusive)
	m.Acquire(3, 3, Exclusive)
	endCycle(t, m, []cycleWait{{1, 2}, {2, 3}, {3, 1}})
}

func TestAcquireAllOrdersItems(t *testing.T) {
	m := New(time.Second)
	defer m.Close()
	if err := m.AcquireAll(1, []core.ItemID{9, 3}, []core.ItemID{5, 3}); err != nil {
		t.Fatal(err)
	}
	// Item 3 appears in both sets: exclusive wins.
	if mode, _ := m.Holds(1, 3); mode != Exclusive {
		t.Error("write-set item not exclusive")
	}
	if mode, _ := m.Holds(1, 9); mode != Shared {
		t.Error("read-set item not shared")
	}
	if mode, _ := m.Holds(1, 5); mode != Exclusive {
		t.Error("exclusive item wrong")
	}
}

func TestCloseFailsWaiters(t *testing.T) {
	m := New(10 * time.Second)
	m.Acquire(1, 1, Exclusive)
	got := make(chan error, 1)
	go func() { got <- m.Acquire(2, 1, Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	m.Close()
	select {
	case err := <-got:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("close did not wake waiter")
	}
	if err := m.Acquire(3, 2, Shared); !errors.Is(err, ErrClosed) {
		t.Errorf("acquire after close: %v", err)
	}
	m.Close() // idempotent
}

func TestReleaseWithoutLocksIsNoop(t *testing.T) {
	m := New(time.Second)
	defer m.Close()
	m.Release(42)
	locked, waiters := m.Stats()
	if locked != 0 || waiters != 0 {
		t.Errorf("stats = %d %d", locked, waiters)
	}
}

func TestStats(t *testing.T) {
	m := New(5 * time.Second)
	defer m.Close()
	m.Acquire(1, 1, Exclusive)
	m.Acquire(1, 2, Shared)
	go m.Acquire(2, 1, Shared)
	time.Sleep(20 * time.Millisecond)
	locked, waiters := m.Stats()
	if locked != 2 || waiters != 1 {
		t.Errorf("stats = %d locked, %d waiting", locked, waiters)
	}
	m.Release(1)
	m.Release(2)
	locked, waiters = m.Stats()
	if locked != 0 || waiters != 0 {
		t.Errorf("after release: %d %d (lock table must shrink)", locked, waiters)
	}
}

// Stress: random transactions over a small item space with 2PL discipline
// never corrupt a guarded counter array, and every AcquireAll is granted —
// ordered lock sets cannot close a cycle, so no wait may end in a timeout.
func TestStressSerializability(t *testing.T) {
	const (
		workers = 8
		items   = 6
		rounds  = 150
	)
	m := New(10 * time.Second)
	defer m.Close()
	var data [items]int64 // guarded by item locks
	var txnSeq atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				txn := core.TxnID(txnSeq.Add(1))
				a := core.ItemID(rng.Intn(items))
				b := core.ItemID(rng.Intn(items))
				if a == b {
					continue // a self-transfer would double-assign data[a]
				}
				if err := m.AcquireAll(txn, nil, []core.ItemID{a, b}); err != nil {
					m.Release(txn)
					t.Error(err)
					return
				}
				// Critical section: transfer between a and b. Any lock
				// bug shows up as a torn read-modify-write under -race.
				va, vb := data[a], data[b]
				data[a], data[b] = va-1, vb+1
				m.Release(txn)
			}
		}(int64(w + 1))
	}
	wg.Wait()
	var sum int64
	for _, v := range data {
		sum += v
	}
	if sum != 0 {
		t.Errorf("conservation violated: sum = %d", sum)
	}
	locked, waiters := m.Stats()
	if locked != 0 || waiters != 0 {
		t.Errorf("leaked locks: %d items, %d waiters", locked, waiters)
	}
}
