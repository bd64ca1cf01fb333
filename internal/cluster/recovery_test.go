package cluster

import (
	"bytes"
	"testing"
	"time"

	"minraid/internal/core"
)

// TestDrainFailLocksLongDonorChain is the regression test for the fixed
// pass count DrainFailLocks used to run: a donor refuses a copy request
// while its own copy of the item is fail-locked, so divergent tables can
// form a chain where each pass unblocks exactly one more donor. With 7
// sites the chain needs 6 passes; the old hard-coded 4 returned
// remaining > 0 on a perfectly healable system. Both healers run the same
// heal step, so the background scrubber must unwind the chain too.
func TestDrainFailLocksLongDonorChain(t *testing.T) {
	const n = 7
	for _, healer := range []string{"drain", "scrubber"} {
		t.Run(healer, func(t *testing.T) {
			c := newTestCluster(t, Config{Sites: n, Items: 1})
			// Site k's table (k < n-1) fail-locks sites 0..k for item 0 — its
			// own copy included — so k's donor choice is k+1, which refuses
			// while its own bit is set. Site n-1's table locks 0..n-2 and is
			// itself clean: the only working donor, for site n-2 only, in the
			// first pass.
			for k := 0; k < n-1; k++ {
				for b := 0; b <= k; b++ {
					c.Site(core.SiteID(k)).InjectFailLock(0, core.SiteID(b))
				}
			}
			for b := 0; b < n-1; b++ {
				c.Site(core.SiteID(n-1)).InjectFailLock(0, core.SiteID(b))
			}
			trueUp := make([]bool, n)
			for i := range trueUp {
				trueUp[i] = true
			}
			var copiers int
			if healer == "drain" {
				before := c.LastTxnID()
				var remaining int
				var err error
				copiers, remaining, err = c.DrainFailLocks(trueUp, 8)
				if err != nil {
					t.Fatal(err)
				}
				if remaining != 0 {
					t.Fatalf("drain left %d locks on a healable donor chain (%d copiers ran)", remaining, copiers)
				}
				// Pinned: one copier per link, and one read transaction per
				// still-locked site per pass (6+5+4+3+2+1), numbered from the
				// manager's own sequence.
				if copiers != n-1 {
					t.Errorf("drain ran %d copiers on a %d-link chain, want %d", copiers, n-1, n-1)
				}
				if used := c.LastTxnID() - before; used != 21 {
					t.Errorf("drain consumed %d transaction IDs, want 21", used)
				}
			} else {
				scr := NewScrubber(c.Manager, ScrubConfig{})
				scr.Start()
				defer scr.Stop()
				if !scr.WaitClean(10 * time.Second) {
					t.Fatal("scrubber never unwound the donor chain")
				}
				scr.Stop()
				copiers = scr.Stats().Copiers
				if remaining, err := c.FailLocksRemaining(trueUp, 0); err != nil || remaining != 0 {
					t.Fatalf("scrubber left %d locks (%v)", remaining, err)
				}
			}
			if copiers < n-1 {
				t.Errorf("only %d copiers ran healing a %d-link chain", copiers, n-1)
			}
			report, err := c.Audit()
			if err != nil {
				t.Fatal(err)
			}
			if !report.OK() {
				t.Error(report)
			}
		})
	}
}

// TestRecoveryAnnouncesSilentSites: a recovering site discovers sites
// that never answered its type-1 announcement. Marking them down only in
// its local vector leaves the survivors' nominal vectors divergent until
// their own ack-timeout detection happens to fire; recovery must follow
// up with a type-2 announcement so the whole group converges on what the
// recovery observed.
func TestRecoveryAnnouncesSilentSites(t *testing.T) {
	c := newTestCluster(t, Config{Sites: 4, Items: 5})
	// Site 2 fails silently: no transaction runs, so no survivor detects
	// it and every vector still carries 2 as operational.
	if err := c.Fail(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Fail(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(1); err != nil {
		t.Fatal(err)
	}
	// Recovery at 1 saw 2 stay silent and must have announced it; site 0
	// and site 3 learn without any transaction traffic of their own.
	for _, observer := range []core.SiteID{0, 3} {
		st, err := c.Status(observer, false)
		if err != nil {
			t.Fatal(err)
		}
		if st.Vector[2].Status == core.StatusUp {
			t.Errorf("site %d still believes silent site 2 operational after recovery's type-2", observer)
		}
	}
}

// TestType3ChunksLargePayload: type-3 pushes are bounded at 16 items, so
// a 33-item endangered set travels in several CtrlReplicate pushes
// instead of one unbounded message, and the system still converges to a
// replicated backup.
func TestType3ChunksLargePayload(t *testing.T) {
	c := newTestCluster(t, Config{Sites: 3, Items: 40, EnableType3: true})
	failAndDetect(t, c, 1, 0)
	// Writes while 1 is down: fresh at {0, 2}, fail-locked for 1.
	for i := 0; i < 33; i++ {
		if res, _ := c.Exec(0, []core.Op{core.Write(core.ItemID(i), val(i))}); !res.Committed {
			t.Fatal("write failed")
		}
	}
	if _, err := c.Recover(1); err != nil {
		t.Fatal(err)
	}
	// Fail 2: the written items are fresh only at 0 among operational
	// sites, and the type-2 detection triggers chunked type-3 pushes.
	failAndDetect(t, c, 2, 0)
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, err := c.FailLockCount(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("type-3 never refreshed site 1 (still %d fail-locks)", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, _ := c.Status(0, false)
	if st.Stats.ControlType3 < 3 {
		t.Errorf("ControlType3 = %d, want >= 3 chunks for 33 endangered items at batch 16", st.Stats.ControlType3)
	}
	res, err := c.Exec(1, []core.Op{core.Read(3)})
	if err != nil || !res.Committed {
		t.Fatalf("read at backup failed: %v %v", res, err)
	}
	if !bytes.Equal(res.Reads[0].Value, val(3)) {
		t.Errorf("backup copy = %q", res.Reads[0].Value)
	}
}

// TestSoloWriteRecordSurvivesWriterRecovery is the regression test for the
// recovery-path wipe: a site that commits writes while falsely believing
// every other site down records their staleness in its own fail-lock table
// alone. Installing a donor's table over it during the writer's next
// type-1 recovery erased that record — the only one in the system — and
// left stale copies unlocked. The per-item versioned merge must keep the
// writer's words wherever its copy is strictly newest, and the post-merge
// lock-sync fan-out must hand them to survivors whose own recovery could
// not have seen them.
func TestSoloWriteRecordSurvivesWriterRecovery(t *testing.T) {
	const ack = 40 * time.Millisecond
	c := newTestCluster(t, Config{Sites: 3, Items: 8, AckTimeout: ack})
	trueUp := []bool{true, true, true}

	// Isolate site 0. Its first write eats the ack timeout and declares
	// sites 1 and 2 failed; later writes commit solo, marking 1 and 2
	// stale on item 0 in site 0's table only. Sites 1 and 2 stay idle, so
	// they never suspect 0.
	c.Partition([]core.SiteID{0}, []core.SiteID{1, 2}, true)
	var soloVal []byte
	for i := 0; i < 4; i++ {
		v := val(0x50 + i)
		res, err := c.Exec(0, []core.Op{core.Write(0, v)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed {
			soloVal = v
		}
	}
	if soloVal == nil {
		t.Fatal("isolated site never committed a solo write")
	}

	// The writer goes down for real while still cut off, then the network
	// heals and site 1 fail-recovers. Site 1's recovery runs with donor 2
	// only — site 0 is down — so nothing can tell site 1 about item 0's
	// staleness; its session bump is what later convinces site 0 that 1
	// is up again.
	if err := c.Fail(0); err != nil {
		t.Fatal(err)
	}
	c.Partition([]core.SiteID{0}, []core.SiteID{1, 2}, false)
	if err := c.Fail(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecoverWithRetry(1, ack); err != nil {
		t.Fatal(err)
	}

	// Now the writer recovers. Both donors' tables are empty and their
	// item-0 copies are older than site 0's, so the merge must keep site
	// 0's word; site 1 (up by session bump) must learn it via the
	// lock-sync fan-out, since no later event would ever deliver it.
	if _, err := c.RecoverWithRetry(0, ack); err != nil {
		t.Fatal(err)
	}
	lockedAt := func(site core.SiteID) uint64 {
		t.Helper()
		st, err := c.Status(site, true)
		if err != nil {
			t.Fatal(err)
		}
		return st.FailLocks[0]
	}
	if got := lockedAt(0); got != 0b110 {
		t.Fatalf("writer's table after recovery: item 0 word %#b, want 0b110 (donor install erased the solo-write record?)", got)
	}
	if got := lockedAt(1); got != 0b110 {
		t.Fatalf("site 1's table after lock-sync: item 0 word %#b, want 0b110", got)
	}

	// Site 2 still carries a stale session for site 0's suspicion of it;
	// the standard false-suspicion repair recovers it, and its type-1
	// merge pulls the word from the now-ahead donors.
	if _, err := c.RepairFalseSuspicions(trueUp, ack); err != nil {
		t.Fatal(err)
	}
	report, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("audit after repair: %s", report)
	}
	if report.StaleCopies == 0 {
		t.Fatal("no locked stale copies tracked: the solo-write record was lost")
	}

	// The record is actionable: the drain refreshes both stale copies and
	// the solo value wins everywhere.
	copiers, remaining, err := c.DrainFailLocks(trueUp, 8)
	if err != nil {
		t.Fatal(err)
	}
	if remaining != 0 {
		t.Fatalf("%d fail-locks left after drain (%d copiers)", remaining, copiers)
	}
	final, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !final.OK() || final.StaleCopies != 0 {
		t.Fatalf("post-drain audit: %s", final)
	}
	for s := core.SiteID(0); s < 3; s++ {
		dump, err := c.Dump(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dump[0].Value, soloVal) {
			t.Fatalf("site %d item 0 = %q, want solo-written %q", s, dump[0].Value, soloVal)
		}
	}
}

// TestLostParticipantBitSurvivesNewerRecovery: a phase-two loss marks the
// lost participant stale in the coordinator's table alone, because the
// coordinator's vector shows every other site down. The stale site's
// recovery takes the bit; a site whose copy is newer and whose word lacks
// the bit recovers next and must not erase it — neither by keeping its
// own word nor by pushing that word over the stale site's.
func TestLostParticipantBitSurvivesNewerRecovery(t *testing.T) {
	const ack = 40 * time.Millisecond
	const coord, s, n, x = 0, 1, 2, 3
	c := newTestCluster(t, Config{Sites: 4, Items: 4, AckTimeout: ack})
	trueUp := []bool{true, true, true, true}

	if err := c.Fail(x); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(coord, []core.Op{core.Write(1, val(1))}); err != nil {
		t.Fatal(err)
	}
	// s prepares but never hears the commit; n applies it but its commit
	// ack is lost. The coordinator marks both lost.
	c.SetLinkDropAfter(coord, s, 1)
	c.SetLinkDropAfter(n, coord, 1)
	res, err := c.Exec(coord, []core.Op{core.Write(0, val(2))})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("write aborted: %s", res.AbortReason)
	}
	c.SetLinkDropAfter(coord, s, -1)
	c.SetLinkDropAfter(n, coord, -1)

	// s recovers from the coordinator and n; then n recovers from s alone.
	if err := c.Fail(s); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecoverWithRetry(s, ack); err != nil {
		t.Fatal(err)
	}
	if err := c.Fail(coord); err != nil {
		t.Fatal(err)
	}
	if err := c.Fail(n); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecoverWithRetry(n, ack); err != nil {
		t.Fatal(err)
	}
	for _, id := range []core.SiteID{coord, x} {
		if _, err := c.RecoverWithRetry(id, ack); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.RepairFalseSuspicions(trueUp, ack); err != nil {
		t.Fatal(err)
	}
	report, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("audit: %s", report)
	}
}
