package lockmgr

import (
	"errors"
	"testing"
	"time"

	"minraid/internal/core"
)

// wantStats fails the test unless the table holds exactly the given number
// of locked items and waiters.
func wantStats(t *testing.T, m *Manager, locked, waiters int) {
	t.Helper()
	if l, w := m.Stats(); l != locked || w != waiters {
		t.Errorf("Stats() = (%d, %d), want (%d, %d)", l, w, locked, waiters)
	}
}

// queueWaiter starts txn's blocking Acquire of item and returns once it is
// queued.
func queueWaiter(t *testing.T, m *Manager, txn core.TxnID, item core.ItemID, mode Mode) {
	t.Helper()
	_, before := m.Stats()
	go m.Acquire(txn, item, mode)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, w := m.Stats(); w > before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("txn %d never queued on item %d", txn, item)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUncontendedAllocatesNothing is the point of the table's layout: once
// the free lists and maps are warm, taking and releasing a free lock set
// costs no allocation.
func TestUncontendedAllocatesNothing(t *testing.T) {
	m := New(time.Second)
	defer m.Close()
	shared := []core.ItemID{1, 3, 5}
	exclusive := []core.ItemID{2, 4}
	txn := core.TxnID(0)
	round := func() {
		txn++
		if err := m.AcquireAll(txn, shared, exclusive); err != nil {
			t.Fatal(err)
		}
		m.Release(txn)
	}
	for i := 0; i < 100; i++ {
		round()
	}
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Errorf("AcquireAll + Release of a free 3-read/2-write set: %v allocations, want 0", n)
	}
	wantStats(t, m, 0, 0)
}

func TestTryAcquireAll(t *testing.T) {
	const me = core.TxnID(10)
	for _, tc := range []struct {
		name string
		// setup prepares the table and returns what to release afterwards
		// for the table to drain (me excluded).
		setup             func(t *testing.T, m *Manager) []core.TxnID
		shared, exclusive []core.ItemID
		want              bool
		// held is what me must hold afterwards, nothing when empty.
		held map[core.ItemID]Mode
	}{
		{
			name:   "free items",
			setup:  func(*testing.T, *Manager) []core.TxnID { return nil },
			shared: []core.ItemID{1, 2}, exclusive: []core.ItemID{3},
			want: true,
			held: map[core.ItemID]Mode{1: Shared, 2: Shared, 3: Exclusive},
		},
		{
			name: "shared beside a reader",
			setup: func(t *testing.T, m *Manager) []core.TxnID {
				m.Acquire(1, 2, Shared)
				return []core.TxnID{1}
			},
			shared: []core.ItemID{2},
			want:   true,
			held:   map[core.ItemID]Mode{2: Shared},
		},
		{
			name: "one item held incompatibly",
			setup: func(t *testing.T, m *Manager) []core.TxnID {
				m.Acquire(1, 2, Shared)
				return []core.TxnID{1}
			},
			shared: []core.ItemID{1}, exclusive: []core.ItemID{2, 3},
			want: false,
		},
		{
			name: "does not overtake a queued writer",
			setup: func(t *testing.T, m *Manager) []core.TxnID {
				m.Acquire(1, 2, Shared)
				queueWaiter(t, m, 2, 2, Exclusive)
				return []core.TxnID{1, 2} // releasing 1 grants 2
			},
			shared: []core.ItemID{2},
			want:   false,
		},
		{
			name: "locks already held, a writer queued behind them",
			setup: func(t *testing.T, m *Manager) []core.TxnID {
				m.AcquireAll(me, []core.ItemID{2}, []core.ItemID{1})
				queueWaiter(t, m, 2, 2, Exclusive)
				return []core.TxnID{2}
			},
			shared: []core.ItemID{1, 2}, exclusive: []core.ItemID{1},
			want: true,
			held: map[core.ItemID]Mode{1: Exclusive, 2: Shared},
		},
		{
			name: "sole shared holder upgrades",
			setup: func(t *testing.T, m *Manager) []core.TxnID {
				m.Acquire(me, 4, Shared)
				return nil
			},
			exclusive: []core.ItemID{4},
			want:      true,
			held:      map[core.ItemID]Mode{4: Exclusive},
		},
		{
			name: "upgrade beside another reader",
			setup: func(t *testing.T, m *Manager) []core.TxnID {
				m.Acquire(me, 4, Shared)
				m.Acquire(1, 4, Shared)
				return []core.TxnID{1}
			},
			exclusive: []core.ItemID{4, 5},
			want:      false,
			held:      map[core.ItemID]Mode{4: Shared},
		},
		{
			name: "closed",
			setup: func(t *testing.T, m *Manager) []core.TxnID {
				m.Close()
				return nil
			},
			exclusive: []core.ItemID{1},
			want:      false,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(5 * time.Second)
			defer m.Close()
			others := tc.setup(t, m)
			locked, waiters := m.Stats()
			if got := m.TryAcquireAll(me, tc.shared, tc.exclusive); got != tc.want {
				t.Fatalf("TryAcquireAll = %v, want %v", got, tc.want)
			}
			if !tc.want {
				// All or nothing: a failed try changes nothing.
				wantStats(t, m, locked, waiters)
			}
			for _, item := range append(append([]core.ItemID(nil), tc.shared...), tc.exclusive...) {
				mode, ok := m.Holds(me, item)
				if want, held := tc.held[item]; ok != held || (ok && mode != want) {
					t.Errorf("item %d: holds (%v, %v), want (%v, %v)", item, mode, ok, want, held)
				}
			}
			// A failed try over a table me holds nothing in owes no Release:
			// once the others are gone the table must be empty.
			if tc.want || len(tc.held) > 0 {
				m.Release(me)
			}
			for _, other := range others {
				m.Release(other)
			}
			wantStats(t, m, 0, 0)
		})
	}
}

// TestTryAcquireAllTakesNothingOnFailure: a set that fails on its last item
// leaves its other items free.
func TestTryAcquireAllTakesNothingOnFailure(t *testing.T) {
	m := New(time.Second)
	defer m.Close()
	if err := m.Acquire(1, 9, Exclusive); err != nil {
		t.Fatal(err)
	}
	if m.TryAcquireAll(2, nil, []core.ItemID{1, 5, 9}) {
		t.Fatal("took a set containing a held item")
	}
	if !m.TryAcquireAll(3, nil, []core.ItemID{1, 5}) {
		t.Error("items of a failed set are not free")
	}
	m.Release(3)
	m.Release(1)
	wantStats(t, m, 0, 0)
}

func TestReleaseAfterTimeoutEmptiesTable(t *testing.T) {
	m := New(20 * time.Millisecond)
	defer m.Close()
	if err := m.Acquire(1, 3, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireAll(2, []core.ItemID{1}, []core.ItemID{3}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	wantStats(t, m, 2, 0) // item 1 (txn 2), item 3 (txn 1)
	m.Release(2)
	wantStats(t, m, 1, 0)
	m.Release(1)
	wantStats(t, m, 0, 0)
}

func TestAcquireAllDuplicateTakenOnceExclusively(t *testing.T) {
	m := New(time.Second)
	defer m.Close()
	if err := m.AcquireAll(1, []core.ItemID{5, 7, 5}, []core.ItemID{5, 5}); err != nil {
		t.Fatal(err)
	}
	if mode, ok := m.Holds(1, 5); !ok || mode != Exclusive {
		t.Errorf("item 5: holds (%v, %v), want exclusive", mode, ok)
	}
	if mode, ok := m.Holds(1, 7); !ok || mode != Shared {
		t.Errorf("item 7: holds (%v, %v), want shared", mode, ok)
	}
	wantStats(t, m, 2, 0)
	m.Release(1)
	wantStats(t, m, 0, 0)
}
