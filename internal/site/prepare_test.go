package site

import (
	"errors"
	"sync"
	"testing"
	"time"

	"minraid/internal/core"
	"minraid/internal/lockmgr"
	"minraid/internal/msg"
	"minraid/internal/transport"
)

// concurrentHarness is a two-site harness in concurrent mode whose lock
// waits and ack timeouts are far longer than any test step.
func concurrentHarness(t *testing.T) *harness {
	return newHarness(t, 2, 8, func(c *Config) {
		c.ConcurrentTxns = 8
		c.AckTimeout = 4 * time.Second
		c.LockWaitBudget = 3 * time.Second
	})
}

// prepare builds a prepare of one write from the managing site.
func prepare(id core.TxnID, item core.ItemID) *msg.Prepare {
	return &msg.Prepare{
		Txn:    id,
		Vector: core.NewSessionVector(2).Records(),
		Writes: []core.ItemVersion{{Item: item, Version: id, Value: []byte("v")}},
	}
}

// sendPrepare sends a one-write prepare to site 1 and returns an error
// unless it is acked OK.
func (h *harness) sendPrepare(id core.TxnID, item core.ItemID) error {
	reply, err := h.caller.Call(1, prepare(id, item))
	if err != nil {
		return err
	}
	if ack := reply.Body.(*msg.PrepareAck); !ack.OK {
		return errors.New("refused: " + ack.Reason)
	}
	return nil
}

// callPrepare is sendPrepare for the test's own goroutine.
func (h *harness) callPrepare(t *testing.T, id core.TxnID, item core.ItemID) {
	t.Helper()
	if err := h.sendPrepare(id, item); err != nil {
		t.Fatalf("prepare %d: %v", id, err)
	}
}

// waitFor polls cond; the conditions polled here are table states another
// goroutine is about to reach, with no event to wait on.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFreePrepareStagedOnReceiveLoop: a prepare whose locks are free gets no
// goroutine of its own. The test holds the site mutex so the handler, locks
// taken, stops in front of staging; if it is the receive loop standing
// there, a request whose handler needs no mutex goes unanswered until the
// mutex is released. (Counting runtime.NumGoroutine instead depends on
// earlier tests' goroutines having finished exiting.)
func TestFreePrepareStagedOnReceiveLoop(t *testing.T) {
	h := concurrentHarness(t)
	s := h.sites[1]
	lm := s.lockManager()
	s.mu.Lock()
	unlock := sync.OnceFunc(s.mu.Unlock)
	defer unlock() // a failed wait must not leave the site wedged for its Stop

	acked := make(chan error, 1)
	go func() { acked <- h.sendPrepare(2, 1) }()
	waitFor(t, "the prepare's locks", func() bool {
		_, held := lm.Holds(2, 1)
		return held
	})
	_, err := h.caller.CallTimeoutT(0, 1, &msg.DumpReq{First: 0, Last: 0}, 100*time.Millisecond)
	if !errors.Is(err, transport.ErrTimeout) {
		t.Errorf("a request behind a prepare held at the site mutex: got %v, want no reply (the receive loop itself stages the prepare)", err)
	}
	unlock()
	if err := <-acked; err != nil {
		t.Fatalf("prepare 2: %v", err)
	}
	s.mu.Lock()
	_, staged := s.staged[2]
	s.mu.Unlock()
	if !staged {
		t.Error("acked prepare is not staged")
	}
}

// TestBlockedPrepareLeavesReceiveLoopFree: a prepare that must wait for a
// lock waits on a goroutine of its own. Meanwhile the site stages and
// commits another transaction and answers a status probe; the blocked
// prepare is staged and acked once the holder commits.
func TestBlockedPrepareLeavesReceiveLoopFree(t *testing.T) {
	h := concurrentHarness(t)
	s := h.sites[1]
	h.callPrepare(t, 1, 2) // holds item 2 until its commit

	blocked := make(chan error, 1)
	go func() { blocked <- h.sendPrepare(2, 2) }()
	waitFor(t, "the second prepare to queue", func() bool {
		_, waiters := s.lockManager().Stats()
		return waiters == 1
	})

	h.callPrepare(t, 3, 5)
	if _, err := h.caller.Call(1, &msg.Commit{Txn: 3}); err != nil {
		t.Fatalf("commit beside a blocked prepare: %v", err)
	}
	if _, err := h.caller.Call(1, &msg.StatusReq{}); err != nil {
		t.Fatalf("status probe beside a blocked prepare: %v", err)
	}
	select {
	case err := <-blocked:
		t.Fatalf("blocked prepare answered before the holder committed: %v", err)
	default:
	}

	if _, err := h.caller.Call(1, &msg.Commit{Txn: 1}); err != nil {
		t.Fatal(err)
	}
	if err := <-blocked; err != nil {
		t.Fatalf("blocked prepare after the holder committed: %v", err)
	}
	if mode, ok := s.lockManager().Holds(2, 2); !ok || mode != lockmgr.Exclusive {
		t.Errorf("staged prepare holds (%v, %v) on its item, want X", mode, ok)
	}
	if _, err := h.caller.Call(1, &msg.Commit{Txn: 2}); err != nil {
		t.Fatal(err)
	}
	// A commit is acked before its locks are released.
	waitFor(t, "the lock table to empty after every commit", func() bool {
		locked, waiters := s.lockManager().Stats()
		return locked == 0 && waiters == 0
	})
}

// TestSiteFailureWhilePrepareWaits: a site that fails with a prepare
// queued for a lock casts no vote for it and carries no lock into its next
// incarnation's table.
func TestSiteFailureWhilePrepareWaits(t *testing.T) {
	h := concurrentHarness(t)
	s := h.sites[1]
	h.callPrepare(t, 1, 2)
	old := s.lockManager()

	silent := make(chan error, 1)
	go func() {
		_, err := h.caller.CallTimeoutT(0, 1, prepare(2, 2), 300*time.Millisecond)
		silent <- err
	}()
	waitFor(t, "the second prepare to queue", func() bool {
		_, waiters := old.Stats()
		return waiters == 1
	})
	if _, err := h.caller.Call(1, &msg.FailSim{}); err != nil {
		t.Fatal(err)
	}
	if err := <-silent; !errors.Is(err, transport.ErrTimeout) {
		t.Errorf("prepare waiting at a failed site: got %v, want no reply", err)
	}
	if s.lockManager() == old {
		t.Fatal("failed site kept its lock manager")
	}
	for i, lm := range []*lockmgr.Manager{old, s.lockManager()} {
		if locked, waiters := lm.Stats(); locked != 0 || waiters != 0 {
			t.Errorf("lock table %d (0 the failed one, 1 its successor): %d locked, %d waiting", i, locked, waiters)
		}
	}
	s.mu.Lock()
	staged := len(s.staged)
	s.mu.Unlock()
	if staged != 0 {
		t.Errorf("%d transactions staged at a failed site", staged)
	}
}
