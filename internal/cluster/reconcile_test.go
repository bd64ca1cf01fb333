package cluster

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"minraid/internal/core"
	"minraid/internal/policy"
)

// TestReconcileSplitBrain drives a full ROWAA split brain and repairs it:
// partition {0} | {1,2}, conflicting writes on both sides, heal, then
// session-vector comparison + fail-lock collection + copier drain must
// leave every copy at the highest committed version and the audit clean.
func TestReconcileSplitBrain(t *testing.T) {
	const ack = 40 * time.Millisecond
	c := newTestCluster(t, Config{Sites: 3, Items: 10, AckTimeout: ack})
	trueUp := []bool{true, true, true}

	c.Partition([]core.SiteID{0}, []core.SiteID{1, 2}, true)
	// Both sides write item 0; the first write on each side eats the ack
	// timeout, announces the other side failed, and sets fail-locks.
	var minorityLast, majorityLast *core.TxnID
	for i := 0; i < 4; i++ {
		res, err := c.Exec(0, []core.Op{core.Write(0, []byte{byte(0x10 + i)})})
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed {
			id := core.TxnID(res.Txn)
			minorityLast = &id
		}
		res, err = c.Exec(1, []core.Op{core.Write(0, []byte{byte(0x20 + i)})})
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed {
			id := core.TxnID(res.Txn)
			majorityLast = &id
		}
	}
	if minorityLast == nil || majorityLast == nil {
		t.Fatal("split brain did not form: a side never committed")
	}

	c.Partition([]core.SiteID{0}, []core.SiteID{1, 2}, false)
	rep, err := c.ReconcileSplitBrain(trueUp, ack)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected() {
		t.Fatalf("split brain not detected: %s", rep)
	}
	if rep.MutualSuspicions == 0 {
		t.Fatalf("no mutual suspicion recorded: %s", rep)
	}
	if rep.DivergentItems == 0 {
		t.Fatalf("no divergent items recorded: %s", rep)
	}

	copiers, remaining, err := c.DrainFailLocks(trueUp, 8)
	if err != nil {
		t.Fatal(err)
	}
	if remaining != 0 {
		t.Fatalf("%d fail-locks left after drain (%d copiers ran)", remaining, copiers)
	}
	if copiers == 0 {
		t.Fatal("drain ran no copier transactions")
	}

	audit, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !audit.OK() {
		t.Fatalf("post-reconcile audit failed: %s", audit)
	}
	// Highest version wins: the later of the two sides' last commits is
	// the surviving value on every copy.
	want := *majorityLast
	if *minorityLast > want {
		want = *minorityLast
	}
	for s := 0; s < 3; s++ {
		dump, err := c.Dump(core.SiteID(s))
		if err != nil {
			t.Fatal(err)
		}
		if dump[0].Version != want {
			t.Fatalf("site %d item 0 at v%d, want winning v%d", s, dump[0].Version, want)
		}
		if s > 0 {
			prev, _ := c.Dump(core.SiteID(s - 1))
			if !bytes.Equal(prev[0].Value, dump[0].Value) {
				t.Fatalf("sites %d and %d hold different values after reconcile", s-1, s)
			}
		}
	}
}

// TestReconcileEqualVersionDivergence is the concurrent-mode twin-write
// regression: versions are per-item commit counters under ConcurrentTxns,
// so when each side of a cut commits exactly one write to the same item,
// both copies land at the same version with different values. Version
// comparison alone cannot see that divergence — reconciliation must
// compare values at the winning version, canonicalize one copy, and
// fail-lock the twins so the drain converges every replica.
func TestReconcileEqualVersionDivergence(t *testing.T) {
	const ack = 40 * time.Millisecond
	c := newTestCluster(t, Config{Sites: 3, Items: 10, ConcurrentTxns: 2, AckTimeout: ack})
	trueUp := []bool{true, true, true}

	c.Partition([]core.SiteID{0}, []core.SiteID{1, 2}, true)
	// A sacrificial write per side eats the ack timeout and announces the
	// other side failed; its abort is expected and irrelevant.
	if _, err := c.Exec(0, []core.Op{core.Write(1, []byte("a"))}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(1, []core.Op{core.Write(1, []byte("b"))}); err != nil {
		t.Fatal(err)
	}
	// Exactly one committed write per side to item 0: both sides count it
	// from version 0, so each commit produces version 1.
	resA, err := c.Exec(0, []core.Op{core.Write(0, []byte("minority"))})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := c.Exec(1, []core.Op{core.Write(0, []byte("majority"))})
	if err != nil {
		t.Fatal(err)
	}
	if !resA.Committed || !resB.Committed {
		t.Fatalf("split brain did not form: committed %v/%v", resA.Committed, resB.Committed)
	}
	dumpA, err := c.Dump(0)
	if err != nil {
		t.Fatal(err)
	}
	dumpB, err := c.Dump(1)
	if err != nil {
		t.Fatal(err)
	}
	if dumpA[0].Version != dumpB[0].Version {
		t.Fatalf("setup broke: versions differ (%d vs %d), the regression needs equal-version twins",
			dumpA[0].Version, dumpB[0].Version)
	}
	if bytes.Equal(dumpA[0].Value, dumpB[0].Value) {
		t.Fatal("setup broke: twin copies hold equal values")
	}

	c.Partition([]core.SiteID{0}, []core.SiteID{1, 2}, false)
	rep, err := c.ReconcileSplitBrain(trueUp, ack)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DivergentItems == 0 {
		t.Fatalf("equal-version divergence not detected: %s", rep)
	}
	if rep.LocksSet == 0 {
		t.Fatalf("no fail-locks installed for the twin copies: %s", rep)
	}
	if _, remaining, err := c.DrainFailLocks(trueUp, 8); err != nil {
		t.Fatal(err)
	} else if remaining != 0 {
		t.Fatalf("%d fail-locks left after drain", remaining)
	}
	audit, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !audit.OK() {
		t.Fatalf("post-reconcile audit failed: %s", audit)
	}
	// Every copy converged to the canonical value (the lowest-numbered
	// truly-up copy at the winning version — site 0's).
	for s := 0; s < 3; s++ {
		dump, err := c.Dump(core.SiteID(s))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dump[0].Value, []byte("minority")) {
			t.Fatalf("site %d item 0 = %q, want canonical %q", s, dump[0].Value, "minority")
		}
	}
}

// TestReconcileQuorumVectorsOnly: under quorum consensus a partition
// splits the session vectors but never the data — reconciliation finds
// suspicion, no divergence, and the quorum audit stays clean throughout.
func TestReconcileQuorumVectorsOnly(t *testing.T) {
	const ack = 40 * time.Millisecond
	c := newTestCluster(t, Config{Sites: 3, Items: 10, Policy: policy.Quorum{}, AckTimeout: ack})
	trueUp := []bool{true, true, true}

	c.Partition([]core.SiteID{0}, []core.SiteID{1, 2}, true)
	minority, majority := 0, 0
	for i := 0; i < 4; i++ {
		res, err := c.Exec(0, []core.Op{core.Write(0, []byte{byte(0x10 + i)})})
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed {
			minority++
		}
		res, err = c.Exec(1, []core.Op{core.Write(0, []byte{byte(0x20 + i)})})
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed {
			majority++
		}
	}
	if minority != 0 {
		t.Fatalf("minority side committed %d writes under quorum", minority)
	}
	if majority == 0 {
		t.Fatal("majority side never committed under quorum")
	}

	c.Partition([]core.SiteID{0}, []core.SiteID{1, 2}, false)
	rep, err := c.ReconcileSplitBrain(trueUp, ack)
	if err != nil {
		t.Fatal(err)
	}
	// The minority copy is stale (version skew is legitimate under
	// quorum), but no fail-locks are installed: quorum does not track
	// staleness, reads vote past it.
	if rep.LocksSet != 0 || rep.LocksCleared != 0 {
		t.Fatalf("reconcile edited fail-locks under quorum: %s", rep)
	}
	audit, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !audit.OK() {
		t.Fatalf("quorum audit failed: %s", audit)
	}
}

// TestOneWayCutIsSilence: an asymmetric cut (0→1 down, 1→0 up) makes 0's
// requests vanish while 1's replies would still flow. Site 0's write
// times out waiting for 1's ack, treats the silence as a failure (not an
// error), announces it, and commits without 1. After heal, reconcile +
// drain restore a clean audit.
func TestOneWayCutIsSilence(t *testing.T) {
	const ack = 40 * time.Millisecond
	c := newTestCluster(t, Config{Sites: 3, Items: 10, AckTimeout: ack})
	trueUp := []bool{true, true, true}

	c.SetLinkDown(0, 1, true)
	// The first write eats the ack timeout, aborts, and announces the
	// silent participant failed; the next one commits without it. Either
	// way the manager sees a clean transaction outcome, never an error.
	commits := 0
	for i := 0; i < 3; i++ {
		res, err := c.Exec(0, []core.Op{core.Write(0, []byte{byte('a' + i)})})
		if err != nil {
			t.Fatalf("one-way cut produced a manager-visible error: %v", err)
		}
		if res.Committed {
			commits++
		}
	}
	if commits == 0 {
		t.Fatal("no write committed; silence toward one participant must not block ROWAA")
	}
	// Site 0 announced 1 failed and fail-locked the written item for it.
	n, err := c.FailLockCount(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("silent participant was not fail-locked")
	}
	// The request really vanished on the cut direction: 2 applied the
	// write, 1 never saw it — yet 1 is alive and answering (its own
	// outbound links, including 1→0, are untouched).
	d2, err := c.Dump(2)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := c.Dump(1)
	if err != nil {
		t.Fatal(err)
	}
	if d2[0].Version == 0 {
		t.Fatal("connected participant missed the write")
	}
	if d1[0].Version != 0 {
		t.Fatal("cut participant received the write through a down link")
	}
	st, err := c.Status(1, false)
	if err != nil {
		t.Fatalf("cut-off site stopped answering: %v", err)
	}
	if st.State != core.StatusUp {
		t.Fatalf("site 1 state %s, want up", st.State)
	}

	c.SetLinkDown(0, 1, false)
	if _, err := c.ReconcileSplitBrain(trueUp, ack); err != nil {
		t.Fatal(err)
	}
	if _, remaining, err := c.DrainFailLocks(trueUp, 8); err != nil {
		t.Fatal(err)
	} else if remaining != 0 {
		t.Fatalf("%d fail-locks left after heal", remaining)
	}
	audit, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !audit.OK() {
		t.Fatalf("post-heal audit failed: %s", audit)
	}
}

// TestRecoveryBlockedDuringPartition: a site recovering while alone on
// its side of a cut finds no donor and reports ErrRecoveryBlocked — the
// paper's "recovery blocked" outcome, not an error or a hang.
func TestRecoveryBlockedDuringPartition(t *testing.T) {
	const ack = 40 * time.Millisecond
	c := newTestCluster(t, Config{Sites: 3, Items: 10, AckTimeout: ack})

	if err := c.Fail(0); err != nil {
		t.Fatal(err)
	}
	c.Partition([]core.SiteID{0}, []core.SiteID{1, 2}, true)
	_, err := c.Recover(0)
	if !errors.Is(err, ErrRecoveryBlocked) {
		t.Fatalf("recovery on a cut-off site: %v, want ErrRecoveryBlocked", err)
	}
	c.Partition([]core.SiteID{0}, []core.SiteID{1, 2}, false)
	if _, err := c.RecoverWithRetry(0, ack); err != nil {
		t.Fatalf("recovery after heal: %v", err)
	}
}
