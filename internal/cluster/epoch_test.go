package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"minraid/internal/core"
	"minraid/internal/policy"
	"minraid/internal/txn"
)

// Epoch-batched commit defers the phase-two fan-out to an epoch boundary
// and answers the client off the flush. The tests here pin its safety
// envelope: convergence under concurrency, the serial degenerate case,
// survival of participant failure mid-stream, and the configuration
// guardrails.

func epochCluster(t *testing.T, sites, items, degree int, epoch time.Duration) *Cluster {
	t.Helper()
	return newTestCluster(t, Config{
		Sites: sites, Items: items,
		ConcurrentTxns: degree,
		CommitEpoch:    epoch,
		// Generous for the in-memory fabric: a -race scheduler stall must
		// not read as a lost commit ack and fail-lock a healthy site.
		AckTimeout: 250 * time.Millisecond,
	})
}

// TestEpochCommitConverges: concurrent writers through the batcher leave
// every replica identical, and transactions genuinely commit.
func TestEpochCommitConverges(t *testing.T) {
	const (
		sites   = 4
		items   = 24
		clients = 4
		perC    = 25
	)
	c := epochCluster(t, sites, items, 8, 2*time.Millisecond)
	var wg sync.WaitGroup
	var mu sync.Mutex
	committed := 0
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perC; i++ {
				id := c.NextTxnID()
				item := core.ItemID((w*perC + i) % items)
				ops := []core.Op{core.Write(item, []byte(fmt.Sprintf("w%d-%d", w, i)))}
				res, err := c.ExecTxn(core.SiteID(w%sites), id, ops)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if res.Committed {
					committed++
				} else if res.AbortReason != txn.AbortLockTimeout {
					t.Errorf("unexpected abort: %q", res.AbortReason)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if committed == 0 {
		t.Fatal("nothing committed through the epoch batcher")
	}
	// Batches answered at flush time are on the wire but possibly not yet
	// applied at participants; let them land before comparing copies.
	time.Sleep(50 * time.Millisecond)
	report, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() || report.StaleCopies != 0 {
		t.Errorf("replicas diverged under epoch commit: %s", report)
	}
}

// TestEpochCommitSerialDegenerates: with serial processing (gate of one)
// the batcher flushes immediately per transaction — a single transaction
// must not stall for the epoch timer's worth of wall clock.
func TestEpochCommitSerialDegenerates(t *testing.T) {
	const epoch = 2 * time.Second // would dwarf the test if ever waited on
	c := newTestCluster(t, Config{
		Sites: 3, Items: 8,
		CommitEpoch: epoch,
		AckTimeout:  3 * time.Second,
	})
	start := time.Now()
	for i := 0; i < 5; i++ {
		res, err := c.ExecTxn(0, c.NextTxnID(), []core.Op{core.Write(core.ItemID(i), []byte{byte(i)})})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Committed {
			t.Fatalf("txn %d aborted: %s", i, res.AbortReason)
		}
	}
	if elapsed := time.Since(start); elapsed > epoch {
		t.Fatalf("serial transactions waited on the epoch timer: %v elapsed", elapsed)
	}
	time.Sleep(20 * time.Millisecond)
	report, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Errorf("audit: %s", report)
	}
}

// TestEpochCommitSurvivesParticipantFailure: a site failed between
// epochs is handled like the stock protocol handles a lost participant —
// later transactions commit without it, its copies are fail-locked, and
// recovery plus the audit converge.
func TestEpochCommitSurvivesParticipantFailure(t *testing.T) {
	c := epochCluster(t, 4, 12, 4, 2*time.Millisecond)
	run := func(n int) {
		t.Helper()
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := c.ExecTxn(0, c.NextTxnID(), []core.Op{core.Write(core.ItemID(i%12), []byte{byte(i)})})
				if err != nil {
					t.Error(err)
					return
				}
				switch {
				case res.Committed:
				case res.AbortReason == txn.AbortLockTimeout,
					res.AbortReason == txn.AbortParticipantDown:
				default:
					t.Errorf("txn %d: %s", i, res.AbortReason)
				}
			}(i)
		}
		wg.Wait()
	}
	run(8)
	if err := c.Fail(2); err != nil {
		t.Fatal(err)
	}
	run(8)
	if _, err := c.RecoverWithRetry(2, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Recovery readmits the site; copies written while it was down stay
	// fail-locked until copier transactions true them up.
	if _, remaining, err := c.DrainFailLocks([]bool{true, true, true, true}, 0); err != nil {
		t.Fatal(err)
	} else if remaining != 0 {
		t.Fatalf("%d fail-locks survived the drain", remaining)
	}
	time.Sleep(50 * time.Millisecond)
	report, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() || report.StaleCopies != 0 {
		t.Errorf("audit after failure cycle: %s", report)
	}
}

// TestEpochCommitConfigGuardrails: the batcher requires ROWAA and an
// epoch under the ack timeout — a batched commit must never look like a
// lost coordinator to the participants' decision timers.
func TestEpochCommitConfigGuardrails(t *testing.T) {
	quorum, ok := policy.ByName("quorum")
	if !ok {
		t.Fatal("quorum policy missing")
	}
	if _, err := New(Config{
		Sites: 3, Items: 8, Policy: quorum,
		CommitEpoch: time.Millisecond,
		AckTimeout:  100 * time.Millisecond,
	}); err == nil {
		t.Fatal("epoch commit accepted a non-rowaa policy")
	}
	if _, err := New(Config{
		Sites: 3, Items: 8,
		CommitEpoch: 200 * time.Millisecond,
		AckTimeout:  100 * time.Millisecond,
	}); err == nil {
		t.Fatal("epoch commit accepted an epoch at or above the ack timeout")
	}
}
