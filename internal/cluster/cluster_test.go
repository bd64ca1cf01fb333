package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"minraid/internal/core"
	"minraid/internal/policy"
	"minraid/internal/txn"
)

// newTestCluster builds a cluster with fast failure detection for tests.
func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.AckTimeout == 0 {
		cfg.AckTimeout = 50 * time.Millisecond
	}
	if cfg.ManagerTimeout == 0 {
		cfg.ManagerTimeout = 10 * time.Second
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// val builds a deterministic write payload.
func val(n int) []byte { return []byte(fmt.Sprintf("v%d", n)) }

func TestSimpleCommitReplicatesEverywhere(t *testing.T) {
	c := newTestCluster(t, Config{Sites: 3, Items: 10})
	res, err := c.Exec(0, []core.Op{core.Write(4, val(1))})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("aborted: %s", res.AbortReason)
	}
	for i := 0; i < 3; i++ {
		dump, err := c.Dump(core.SiteID(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dump[4].Value, val(1)) {
			t.Errorf("site %d copy = %q", i, dump[4].Value)
		}
		if dump[4].Version != res.Txn {
			t.Errorf("site %d version = %d, want %d", i, dump[4].Version, res.Txn)
		}
	}
	report, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Error(report)
	}
}

func TestReadsReturnValuesInOpOrder(t *testing.T) {
	c := newTestCluster(t, Config{Sites: 2, Items: 5})
	if _, err := c.Exec(0, []core.Op{core.Write(1, val(11)), core.Write(2, val(22))}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec(1, []core.Op{core.Read(2), core.Read(1), core.Read(2)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed || len(res.Reads) != 3 {
		t.Fatalf("res = %+v", res)
	}
	if !bytes.Equal(res.Reads[0].Value, val(22)) || !bytes.Equal(res.Reads[1].Value, val(11)) || !bytes.Equal(res.Reads[2].Value, val(22)) {
		t.Errorf("reads = %v", res.Reads)
	}
}

func TestReadOnlyTxnSkips2PC(t *testing.T) {
	c := newTestCluster(t, Config{Sites: 2, Items: 5})
	before := c.MessagesSent()
	res, err := c.Exec(0, []core.Op{core.Read(0)})
	if err != nil || !res.Committed {
		t.Fatalf("res=%v err=%v", res, err)
	}
	// Only the client request and the reply cross the network.
	if got := c.MessagesSent() - before; got != 2 {
		t.Errorf("read-only txn used %d messages, want 2", got)
	}
}

func TestFirstWriteAfterFailureDetectsAndAborts(t *testing.T) {
	c := newTestCluster(t, Config{Sites: 2, Items: 5})
	if err := c.Fail(0); err != nil {
		t.Fatal(err)
	}
	// Site 1 still believes 0 is up: the prepare times out, the txn
	// aborts, and a type-2 control transaction marks 0 down.
	res, err := c.Exec(1, []core.Op{core.Write(1, val(1))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("commit despite undetected failure — ROWAA must abort on missing ack")
	}
	if res.AbortReason != txn.AbortParticipantDown {
		t.Errorf("abort reason = %q", res.AbortReason)
	}
	st, err := c.Status(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Vector[0].Status != core.StatusDown {
		t.Error("type-2 did not mark site 0 down")
	}
	if st.Stats.ControlType2 != 1 {
		t.Errorf("ControlType2 = %d", st.Stats.ControlType2)
	}

	// The next transaction skips the down site and commits.
	res, err = c.Exec(1, []core.Op{core.Write(1, val(2))})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("post-detection txn aborted: %s", res.AbortReason)
	}
}

// failAndDetect fails a site and runs one throwaway write so the survivors
// detect it.
func failAndDetect(t *testing.T, c *Cluster, victim, detector core.SiteID) {
	t.Helper()
	if err := c.Fail(victim); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec(detector, []core.Op{core.Write(0, []byte("detect"))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("detection txn unexpectedly committed")
	}
}

func TestFailLocksAccumulateWhileSiteDown(t *testing.T) {
	c := newTestCluster(t, Config{Sites: 2, Items: 20})
	failAndDetect(t, c, 0, 1)
	written := map[core.ItemID]bool{}
	for i := 0; i < 10; i++ {
		item := core.ItemID(i)
		res, err := c.Exec(1, []core.Op{core.Write(item, val(i))})
		if err != nil || !res.Committed {
			t.Fatalf("txn on survivor failed: %v %v", res, err)
		}
		written[item] = true
	}
	// Item 0 was also written by the detection txn? No — it aborted.
	n, err := c.FailLockCount(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(written) {
		t.Errorf("fail-locks for site 0 = %d, want %d", n, len(written))
	}
	st, _ := c.Status(1, true)
	for item := range written {
		if st.FailLocks[item]&(1<<0) == 0 {
			t.Errorf("item %d not fail-locked for site 0", item)
		}
	}
}

func TestRecoveryClearsFailLocksByWrites(t *testing.T) {
	c := newTestCluster(t, Config{Sites: 2, Items: 10})
	failAndDetect(t, c, 0, 1)
	for i := 0; i < 5; i++ {
		if res, _ := c.Exec(1, []core.Op{core.Write(core.ItemID(i), val(i))}); !res.Committed {
			t.Fatal("write failed")
		}
	}
	st, err := c.Recover(0)
	if err != nil {
		t.Fatalf("recover: %v (state %v)", err, st.State)
	}
	if st.State != core.StatusUp {
		t.Fatalf("state after recovery = %v", st.State)
	}
	// The recovering site received the fail-locks from the donor.
	n, _ := c.FailLockCount(0, 0)
	if n != 5 {
		t.Errorf("recovered site sees %d own fail-locks, want 5", n)
	}
	// New writes through site 1 reach site 0 and clear locks there too.
	for i := 0; i < 5; i++ {
		if res, _ := c.Exec(1, []core.Op{core.Write(core.ItemID(i), val(100+i))}); !res.Committed {
			t.Fatal("write failed")
		}
	}
	for _, observer := range []core.SiteID{0, 1} {
		n, _ := c.FailLockCount(observer, 0)
		if n != 0 {
			t.Errorf("observer %d still sees %d fail-locks", observer, n)
		}
	}
	report, err := c.Audit()
	if err != nil || !report.OK() {
		t.Errorf("audit: %v %v", report, err)
	}
}

func TestCopierRefreshesStaleRead(t *testing.T) {
	c := newTestCluster(t, Config{Sites: 2, Items: 10})
	failAndDetect(t, c, 0, 1)
	// Fresh value written while 0 is down.
	if res, _ := c.Exec(1, []core.Op{core.Write(3, []byte("fresh"))}); !res.Committed {
		t.Fatal("write failed")
	}
	if _, err := c.Recover(0); err != nil {
		t.Fatal(err)
	}
	// A read of item 3 coordinated at the recovering site must trigger a
	// copier transaction and observe the fresh value, not the stale one.
	res, err := c.Exec(0, []core.Op{core.Read(3)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("aborted: %s", res.AbortReason)
	}
	if res.Copiers != 1 {
		t.Errorf("copiers = %d, want 1", res.Copiers)
	}
	if !bytes.Equal(res.Reads[0].Value, []byte("fresh")) {
		t.Errorf("stale read: %q", res.Reads[0].Value)
	}
	// The copier cleared the fail-lock everywhere (special transaction).
	for _, observer := range []core.SiteID{0, 1} {
		st, _ := c.Status(observer, true)
		if st.FailLocks[3]&(1<<0) != 0 {
			t.Errorf("observer %d: fail-lock for item 3 survives the copier", observer)
		}
	}
	// Donor-side counter.
	st, _ := c.Status(1, false)
	if st.Stats.CopiesServed != 1 {
		t.Errorf("CopiesServed = %d", st.Stats.CopiesServed)
	}
}

func TestWriteRefreshesStaleCopyWithoutCopier(t *testing.T) {
	c := newTestCluster(t, Config{Sites: 2, Items: 10})
	failAndDetect(t, c, 0, 1)
	if res, _ := c.Exec(1, []core.Op{core.Write(3, []byte("missed"))}); !res.Committed {
		t.Fatal("write failed")
	}
	if _, err := c.Recover(0); err != nil {
		t.Fatal(err)
	}
	// A blind write to the stale item needs no copier: the write itself
	// refreshes the copy ("a recovering site clears a fail-lock bit for a
	// data item after it has become refreshed by a write", §1.1).
	res, err := c.Exec(0, []core.Op{core.Write(3, []byte("new"))})
	if err != nil || !res.Committed {
		t.Fatalf("res=%v err=%v", res, err)
	}
	if res.Copiers != 0 {
		t.Errorf("blind write ran %d copiers", res.Copiers)
	}
	n, _ := c.FailLockCount(1, 0)
	if n != 0 {
		t.Errorf("fail-locks remain: %d", n)
	}
	report, _ := c.Audit()
	if !report.OK() {
		t.Error(report)
	}
}

func TestAbortWhenNoDonorAvailable(t *testing.T) {
	// Scenario 1's abort mechanism: site 0 recovers with fail-locked
	// items, then site 1 (the only donor) fails. Reads of fail-locked
	// items must abort.
	c := newTestCluster(t, Config{Sites: 2, Items: 10})
	failAndDetect(t, c, 0, 1)
	if res, _ := c.Exec(1, []core.Op{core.Write(5, []byte("only-on-1"))}); !res.Committed {
		t.Fatal("write failed")
	}
	if _, err := c.Recover(0); err != nil {
		t.Fatal(err)
	}
	failAndDetect(t, c, 1, 0)
	res, err := c.Exec(0, []core.Op{core.Read(5)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("read of unavailable data committed")
	}
	if res.AbortReason != txn.AbortNoDonor {
		t.Errorf("abort reason = %q", res.AbortReason)
	}
	// Reads of up-to-date items still work: high availability on the
	// recovering site.
	res, err = c.Exec(0, []core.Op{core.Read(1)})
	if err != nil || !res.Committed {
		t.Fatalf("up-to-date read failed: %v %v", res, err)
	}
}

func TestRecoveryBlockedWithoutDonor(t *testing.T) {
	c := newTestCluster(t, Config{Sites: 2, Items: 5})
	failAndDetect(t, c, 0, 1)
	if err := c.Fail(1); err != nil {
		t.Fatal(err)
	}
	_, err := c.Recover(0)
	if !errors.Is(err, ErrRecoveryBlocked) {
		t.Fatalf("err = %v, want recovery blocked", err)
	}
	st, _ := c.Status(0, false)
	if st.State != core.StatusDown {
		t.Errorf("blocked site state = %v, want down", st.State)
	}
	// Once the donor recovers, recovery succeeds. Site 1 recovers first:
	// its donor is site 0... also down. Both are blocked until one of
	// them was never actually stale. Recover 1 fails too.
	if _, err := c.Recover(1); !errors.Is(err, ErrRecoveryBlocked) {
		t.Fatalf("err = %v", err)
	}
}

func TestSuccessiveSingleFailuresNoAborts(t *testing.T) {
	// Scenario 2's core claim: rolling single failures leave an
	// up-to-date copy available somewhere, so no transaction aborts for
	// data unavailability.
	c := newTestCluster(t, Config{Sites: 4, Items: 20})
	coords := []core.SiteID{1, 2, 3}
	failAndDetect(t, c, 0, 1)
	dataAborts := 0
	for i := 0; i < 15; i++ {
		item := core.ItemID(i % 20)
		res, err := c.Exec(coords[i%len(coords)], []core.Op{core.Read(item), core.Write(item, val(i))})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Committed && res.AbortReason == txn.AbortNoDonor {
			dataAborts++
		}
	}
	if _, err := c.Recover(0); err != nil {
		t.Fatal(err)
	}
	failAndDetect(t, c, 1, 2)
	for i := 0; i < 15; i++ {
		item := core.ItemID(i % 20)
		res, err := c.Exec([]core.SiteID{0, 2, 3}[i%3], []core.Op{core.Read(item), core.Write(item, val(100+i))})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Committed && res.AbortReason == txn.AbortNoDonor {
			dataAborts++
		}
	}
	if _, err := c.Recover(1); err != nil {
		t.Fatal(err)
	}
	if dataAborts != 0 {
		t.Errorf("%d aborts for data unavailability; scenario 2 predicts none", dataAborts)
	}
	// Drain remaining fail-locks with writes, then audit.
	for i := 0; i < 20; i++ {
		c.Exec(core.SiteID(i%4), []core.Op{core.Write(core.ItemID(i), val(200+i))})
	}
	report, err := c.Audit()
	if err != nil || !report.OK() {
		t.Errorf("audit: %v %v", report, err)
	}
}

func TestROWABaselineBlocksOnFailure(t *testing.T) {
	c := newTestCluster(t, Config{Sites: 3, Items: 5, Policy: policy.ROWA{}})
	if res, _ := c.Exec(0, []core.Op{core.Write(1, val(1))}); !res.Committed {
		t.Fatal("healthy ROWA write failed")
	}
	if err := c.Fail(2); err != nil {
		t.Fatal(err)
	}
	// Every write now aborts: write-all cannot reach site 2.
	for i := 0; i < 3; i++ {
		res, err := c.Exec(0, []core.Op{core.Write(1, val(10+i))})
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed {
			t.Fatal("ROWA committed a write with a site down")
		}
	}
	// Reads still work (read-one).
	res, err := c.Exec(0, []core.Op{core.Read(1)})
	if err != nil || !res.Committed {
		t.Fatalf("ROWA read failed: %v %v", res, err)
	}
	if !bytes.Equal(res.Reads[0].Value, val(1)) {
		t.Errorf("read = %q", res.Reads[0].Value)
	}
}

func TestQuorumBaselineToleratesMinority(t *testing.T) {
	c := newTestCluster(t, Config{Sites: 3, Items: 5, Policy: policy.Quorum{}})
	if err := c.Fail(2); err != nil {
		t.Fatal(err)
	}
	// Majority (0, 1) suffices for both reads and writes.
	res, err := c.Exec(0, []core.Op{core.Write(1, []byte("qv"))})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("quorum write aborted: %s", res.AbortReason)
	}
	res, err = c.Exec(1, []core.Op{core.Read(1)})
	if err != nil || !res.Committed {
		t.Fatalf("quorum read failed: %v %v", res, err)
	}
	if !bytes.Equal(res.Reads[0].Value, []byte("qv")) {
		t.Errorf("quorum read = %q", res.Reads[0].Value)
	}

	// Losing the majority blocks everything.
	if err := c.Fail(1); err != nil {
		t.Fatal(err)
	}
	res, err = c.Exec(0, []core.Op{core.Write(1, []byte("x"))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("quorum committed without a majority")
	}
	res, err = c.Exec(0, []core.Op{core.Read(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("quorum read without a majority")
	}
	if res.AbortReason != txn.AbortNoQuorum {
		t.Errorf("abort reason = %q", res.AbortReason)
	}
}

func TestQuorumReadPicksNewestVersion(t *testing.T) {
	c := newTestCluster(t, Config{Sites: 3, Items: 5, Policy: policy.Quorum{}})
	if err := c.Fail(0); err != nil {
		t.Fatal(err)
	}
	// Write lands on {1, 2} only; site 0's copy stays at version 0.
	if res, _ := c.Exec(1, []core.Op{core.Write(2, []byte("newest"))}); !res.Committed {
		t.Fatal("quorum write failed")
	}
	// Site 0 returns with a stale copy and coordinates a read: version
	// voting must surface the newest copy from the majority.
	// (Quorum has no type-1 recovery; simulate rejoin via RecoverSim.)
	if _, err := c.Recover(0); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec(0, []core.Op{core.Read(2)})
	if err != nil || !res.Committed {
		t.Fatalf("read failed: %v %v", res, err)
	}
	if !bytes.Equal(res.Reads[0].Value, []byte("newest")) {
		t.Errorf("quorum read returned stale %q", res.Reads[0].Value)
	}
}

func TestType3ReplicatesEndangeredCopies(t *testing.T) {
	c := newTestCluster(t, Config{Sites: 3, Items: 6, EnableType3: true})
	failAndDetect(t, c, 1, 0)
	// Writes while 1 is down: fresh at {0, 2}, fail-locked for 1.
	for i := 0; i < 4; i++ {
		if res, _ := c.Exec(0, []core.Op{core.Write(core.ItemID(i), val(i))}); !res.Committed {
			t.Fatal("write failed")
		}
	}
	if _, err := c.Recover(1); err != nil {
		t.Fatal(err)
	}
	// Now fail 2: the items are fresh only at 0 among operational sites.
	// The detection's type-2 triggers type-3 replication to site 1.
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
	if st.Stats.ControlType3 == 0 {
		t.Error("no type-3 control transactions recorded")
	}
	// Site 1 now serves the data even though 0 could fail next.
	res, err := c.Exec(1, []core.Op{core.Read(2)})
	if err != nil || !res.Committed {
		t.Fatalf("read at backup failed: %v %v", res, err)
	}
	if !bytes.Equal(res.Reads[0].Value, val(2)) {
		t.Errorf("backup copy = %q", res.Reads[0].Value)
	}
}

func TestAuditDetectsUntrackedDivergence(t *testing.T) {
	c := newTestCluster(t, Config{Sites: 2, Items: 4})
	if res, _ := c.Exec(0, []core.Op{core.Write(1, val(1))}); !res.Committed {
		t.Fatal("write failed")
	}
	// Corrupt site 1's copy behind the protocol's back.
	s := c.Site(1)
	if _, err := s.InjectCorruption(1, []byte("corrupt")); err != nil {
		t.Fatal(err)
	}
	report, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if report.OK() {
		t.Error("audit missed an untracked divergence")
	}
}

func TestStatsAndElapsedReporting(t *testing.T) {
	c := newTestCluster(t, Config{Sites: 2, Items: 5})
	res, err := c.Exec(0, []core.Op{core.Write(1, val(1)), core.Read(1)})
	if err != nil || !res.Committed {
		t.Fatal("txn failed")
	}
	if res.ElapsedNanos == 0 {
		t.Error("no elapsed time reported")
	}
	st0, _ := c.Status(0, false)
	if st0.Stats.Committed != 1 {
		t.Errorf("coordinator Committed = %d", st0.Stats.Committed)
	}
	st1, _ := c.Status(1, false)
	if st1.Stats.Participated != 1 {
		t.Errorf("participant Participated = %d", st1.Stats.Participated)
	}
	if st0.Stats.MsgsOut == 0 || st1.Stats.MsgsIn == 0 {
		t.Error("message counters empty")
	}
	// Coordinator timer recorded.
	if c.Registry(0).Timer("txn.coord").Count != 1 {
		t.Error("coordinator timer not recorded")
	}
	if c.Registry(1).Timer("txn.part").Count != 1 {
		t.Error("participant timer not recorded")
	}
}

func TestExecOnDownCoordinatorTimesOut(t *testing.T) {
	c := newTestCluster(t, Config{Sites: 2, Items: 5, ManagerTimeout: 100 * time.Millisecond})
	if err := c.Fail(0); err != nil {
		t.Fatal(err)
	}
	_, err := c.Exec(0, []core.Op{core.Read(0)})
	if !errors.Is(err, ErrNoResponse) {
		t.Errorf("err = %v", err)
	}
}

// TestClusterValidation pins the one validator: one bad description per rule
// — the cluster-level ranges and wire first, then the site rules checked
// on the translated site configuration — each refused by a message naming
// the rule, and the combinations the rules allow accepted.
func TestClusterValidation(t *testing.T) {
	ack := 100 * time.Millisecond
	bad := []struct {
		cfg  Config
		want string
	}{
		{Config{Sites: 0, Items: 5}, "sites out of range"},
		{Config{Sites: core.MaxSites + 1, Items: 5}, "sites out of range"},
		{Config{Sites: 2, Items: 0}, "items out of range"},
		{Config{Sites: 3, Items: 5, ReplicationDegree: -1}, "replication degree"},
		{Config{Sites: 3, Items: 5, ReplicationDegree: 4}, "replication degree"},
		{Config{Sites: 2, Items: 5, Transport: "carrier-pigeon"}, "unknown transport"},
		{Config{Sites: 2, Items: 5, AckTimeout: ack, LockWaitBudget: ack}, "lock-wait budget"},
		{Config{Sites: 2, Items: 5, AckTimeout: ack, CommitEpoch: ack}, "commit epoch"},
		{Config{Sites: 2, Items: 5, Policy: policy.ROWA{}, ConcurrentTxns: 4}, "concurrent mode requires the rowaa policy"},
		{Config{Sites: 2, Items: 5, Policy: policy.Quorum{}, CommitEpoch: time.Millisecond}, "epoch-batched commit requires the rowaa policy"},
		{Config{Sites: 3, Items: 5, Policy: policy.ROWA{}, ReplicationDegree: 2}, "partial replication requires a copy-aware policy"},
		{Config{Sites: 3, Items: 5, EnableType3: true, ReplicationDegree: 2}, "type-3 control transactions require full replication"},
	}
	for i, c := range bad {
		err := c.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: err = %v, want one naming %q", i, err, c.want)
		}
	}
	good := []Config{
		{Sites: 1, Items: 1},
		{Sites: core.MaxSites, Items: 5},
		{Sites: 3, Items: 5, ReplicationDegree: 3},
		{Sites: 3, Items: 5, Policy: policy.Quorum{}, ReplicationDegree: 2},
		{Sites: 3, Items: 5, ReplicationDegree: 1},
		{Sites: 2, Items: 5, Transport: "tcp", ConcurrentTxns: 4, CommitEpoch: time.Millisecond},
		{Sites: 2, Items: 5, EnableType3: true},
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("good case %d rejected: %v", i, err)
		}
	}
}

func TestManySequentialTransactions(t *testing.T) {
	c := newTestCluster(t, Config{Sites: 4, Items: 50})
	for i := 0; i < 60; i++ {
		coord := core.SiteID(i % 4)
		item := core.ItemID(i % 50)
		res, err := c.Exec(coord, []core.Op{core.Read(item), core.Write(item, val(i))})
		if err != nil || !res.Committed {
			t.Fatalf("txn %d: %v %v", i, res, err)
		}
	}
	report, err := c.Audit()
	if err != nil || !report.OK() {
		t.Errorf("audit: %v %v", report, err)
	}
	if report.StaleCopies != 0 {
		t.Errorf("healthy run produced %d stale copies", report.StaleCopies)
	}
}

// --- partial replication (§3.2's setting, implemented as an extension) ---

func partialCluster(t *testing.T, sites, items, degree int) *Cluster {
	t.Helper()
	return newTestCluster(t, Config{
		Sites: sites, Items: items,
		ReplicationDegree: degree,
	})
}

func TestPartialReplicationBasics(t *testing.T) {
	c := partialCluster(t, 4, 8, 2)
	// Item 0 is hosted by sites 0 and 1. Write via a non-hosting
	// coordinator (site 2): only hosts store the copy.
	res, err := c.Exec(2, []core.Op{core.Write(0, []byte("pr"))})
	if err != nil || !res.Committed {
		t.Fatalf("write: %v %v", res, err)
	}
	for s := 0; s < 4; s++ {
		dump, err := c.Dump(core.SiteID(s))
		if err != nil {
			t.Fatal(err)
		}
		hosted := s == 0 || s == 1
		if hosted && !bytes.Equal(dump[0].Value, []byte("pr")) {
			t.Errorf("host %d missing the copy: %v", s, dump[0])
		}
		if !hosted && dump[0].Version != 0 {
			t.Errorf("non-host %d stored a copy: %v", s, dump[0])
		}
	}
	// Read via a non-hosting coordinator: remote fresh read.
	res, err = c.Exec(3, []core.Op{core.Read(0)})
	if err != nil || !res.Committed {
		t.Fatalf("remote read: %v %v", res, err)
	}
	if !bytes.Equal(res.Reads[0].Value, []byte("pr")) {
		t.Errorf("remote read = %q", res.Reads[0].Value)
	}
	report, err := c.Audit()
	if err != nil || !report.OK() {
		t.Errorf("audit: %v %v", report, err)
	}
}

func TestPartialReplicationFailureAndRecovery(t *testing.T) {
	c := partialCluster(t, 3, 6, 2)
	// Item 0 hosted by {0,1}; fail site 1, write item 0, verify the
	// fail-lock lands only on the hosting down site, then recover and
	// heal via a copier.
	failAndDetect(t, c, 1, 0)
	res, err := c.Exec(0, []core.Op{core.Write(0, []byte("v2"))})
	if err != nil || !res.Committed {
		t.Fatalf("write with host down: %v %v", res, err)
	}
	st, _ := c.Status(0, true)
	if st.FailLocks[0] != 1<<1 {
		t.Errorf("fail-locks for item 0 = %#x, want only site 1", st.FailLocks[0])
	}
	// The non-hosting up site 2 also tracks the lock (fully replicated
	// fail-locks via maintenance-only notices).
	st2, _ := c.Status(2, true)
	if st2.FailLocks[0] != 1<<1 {
		t.Errorf("non-host table for item 0 = %#x", st2.FailLocks[0])
	}
	if _, err := c.Recover(1); err != nil {
		t.Fatal(err)
	}
	res, err = c.Exec(1, []core.Op{core.Read(0)})
	if err != nil || !res.Committed {
		t.Fatalf("read on recovered host: %v %v", res, err)
	}
	if !bytes.Equal(res.Reads[0].Value, []byte("v2")) {
		t.Errorf("stale read after recovery: %q", res.Reads[0].Value)
	}
	if res.Copiers != 1 {
		t.Errorf("copiers = %d", res.Copiers)
	}
	report, err := c.Audit()
	if err != nil || !report.OK() {
		t.Errorf("audit: %v %v", report, err)
	}
}

func TestPartialReplicationWriteUnavailable(t *testing.T) {
	// Degree 1: item 0 lives only on site 0. With site 0 down, neither
	// reads nor writes of item 0 can proceed anywhere.
	c := partialCluster(t, 3, 3, 1)
	failAndDetect(t, c, 0, 1)
	res, err := c.Exec(1, []core.Op{core.Write(0, []byte("x"))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("wrote an item with zero available copies")
	}
	if res.AbortReason != txn.AbortWriteUnavailable {
		t.Errorf("abort reason = %q", res.AbortReason)
	}
	res, err = c.Exec(1, []core.Op{core.Read(0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("read an item with zero available copies")
	}
	if res.AbortReason != txn.AbortNoDonor {
		t.Errorf("read abort reason = %q", res.AbortReason)
	}
	// Items hosted on live sites still work: availability follows the
	// placement, not the whole system.
	res, err = c.Exec(1, []core.Op{core.Write(1, []byte("ok"))})
	if err != nil || !res.Committed {
		t.Fatalf("unrelated item blocked: %v %v", res, err)
	}
	// The audit tolerates the unavailable item without violations.
	report, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Error(report)
	}
	if report.UnavailableItems != 1 {
		t.Errorf("UnavailableItems = %d, want 1 (item 0)", report.UnavailableItems)
	}
}

func TestPartialReplicationRequiresCopyAwarePolicy(t *testing.T) {
	// ROWA has no notion of per-item copies — write-all over a partial
	// map would silently become write-all-hosts. Reject it.
	_, err := New(Config{
		Sites: 3, Items: 3, Policy: policy.ROWA{},
		ReplicationDegree: 2,
	})
	if err == nil {
		t.Error("rowa with partial replication accepted")
	}
	// Quorum is copy-aware: quorums are sized per item from its hosting
	// degree, so a partial map is accepted.
	c, err := New(Config{
		Sites: 3, Items: 3, Policy: policy.Quorum{},
		ReplicationDegree: 2,
	})
	if err != nil {
		t.Fatalf("quorum with partial replication rejected: %v", err)
	}
	c.Close()
}

func TestPartialQuorumReadsAndWrites(t *testing.T) {
	// Degree 2 of 4: a write needs both copies (majority of 2 is 2), a
	// read needs 1 (degree - write quorum + 1), and only hosting sites'
	// copies vote.
	c := newTestCluster(t, Config{
		Sites: 4, Items: 8, Policy: policy.Quorum{},
		ReplicationDegree: 2,
	})
	// Item 0 hosted by {0,1}; write from a non-hosting coordinator.
	res, err := c.Exec(2, []core.Op{core.Write(0, []byte("q1"))})
	if err != nil || !res.Committed {
		t.Fatalf("write: %v %v", res, err)
	}
	// Read from every site: the quorum read must find the copy.
	for s := 0; s < 4; s++ {
		res, err := c.Exec(core.SiteID(s), []core.Op{core.Read(0)})
		if err != nil || !res.Committed {
			t.Fatalf("read via %d: %v %v", s, res, err)
		}
		if !bytes.Equal(res.Reads[0].Value, []byte("q1")) {
			t.Errorf("read via %d = %q", s, res.Reads[0].Value)
		}
	}
	// With one of item 0's two hosts down, the write quorum (2 of 2) is
	// unreachable even though 3 of 4 sites are up.
	failAndDetect(t, c, 0, 1)
	res, err = c.Exec(1, []core.Op{core.Write(0, []byte("q2"))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Error("write committed without a per-item majority of copies")
	}
	// Items fully hosted on live sites keep working.
	res, err = c.Exec(1, []core.Op{core.Write(2, []byte("ok"))})
	if err != nil || !res.Committed {
		t.Fatalf("unrelated item blocked: %v %v", res, err)
	}
	// The quorum audit needs every site up (a down site hides copies).
	if _, err := c.Recover(0); err != nil {
		t.Fatal(err)
	}
	report, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Error(report)
	}
}

func TestSequentialFailuresOfDifferentSites(t *testing.T) {
	// Fail-locks from two different down periods coexist: site 1 and
	// then site 2 miss different writes; both recover and heal.
	c := newTestCluster(t, Config{Sites: 3, Items: 12})
	failAndDetect(t, c, 1, 0)
	for i := 0; i < 4; i++ {
		if res, _ := c.Exec(0, []core.Op{core.Write(core.ItemID(i), val(i))}); !res.Committed {
			t.Fatal("write failed")
		}
	}
	if _, err := c.Recover(1); err != nil {
		t.Fatal(err)
	}
	failAndDetect(t, c, 2, 0)
	for i := 4; i < 8; i++ {
		if res, _ := c.Exec(0, []core.Op{core.Write(core.ItemID(i), val(i))}); !res.Committed {
			t.Fatal("write failed")
		}
	}
	// Site 1 still has its own stale items; site 2 has different ones.
	st, _ := c.Status(0, true)
	n1, n2 := 0, 0
	for _, bits := range st.FailLocks {
		if bits&(1<<1) != 0 {
			n1++
		}
		if bits&(1<<2) != 0 {
			n2++
		}
	}
	if n1 == 0 || n2 == 0 {
		t.Fatalf("expected coexisting fail-locks: site1=%d site2=%d", n1, n2)
	}
	if _, err := c.Recover(2); err != nil {
		t.Fatal(err)
	}
	// Reads via each recovered site heal everything.
	for i := 0; i < 12; i++ {
		for _, coord := range []core.SiteID{1, 2} {
			if res, _ := c.Exec(coord, []core.Op{core.Read(core.ItemID(i))}); !res.Committed {
				t.Fatalf("heal read %d via %d failed", i, coord)
			}
		}
	}
	report, _ := c.Audit()
	if !report.OK() || report.StaleCopies != 0 {
		t.Errorf("audit: %v", report)
	}
}

func TestRereadAfterCopierIsLocal(t *testing.T) {
	// Once a copier refreshed an item, subsequent reads at the recovered
	// site are served locally (no further copiers).
	c := newTestCluster(t, Config{Sites: 2, Items: 5})
	failAndDetect(t, c, 0, 1)
	if res, _ := c.Exec(1, []core.Op{core.Write(2, []byte("f"))}); !res.Committed {
		t.Fatal("write failed")
	}
	if _, err := c.Recover(0); err != nil {
		t.Fatal(err)
	}
	res, _ := c.Exec(0, []core.Op{core.Read(2)})
	if res.Copiers != 1 {
		t.Fatalf("first read copiers = %d", res.Copiers)
	}
	res, _ = c.Exec(0, []core.Op{core.Read(2)})
	if res.Copiers != 0 {
		t.Errorf("second read ran %d copiers", res.Copiers)
	}
	st, _ := c.Status(0, false)
	if st.Stats.CopiersRequested != 1 {
		t.Errorf("CopiersRequested = %d", st.Stats.CopiersRequested)
	}
}

func TestPartialReplicationDonorFailsDuringRemoteRead(t *testing.T) {
	// Item 0's only copy is on site 0. Site 0 dies silently; site 1 has
	// not detected it yet, so its remote read targets site 0, times out,
	// aborts, and announces the failure (type 2).
	c := partialCluster(t, 3, 3, 1)
	if err := c.Fail(0); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec(1, []core.Op{core.Read(0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("remote read from a dead donor committed")
	}
	if res.AbortReason != txn.AbortDonorDown {
		t.Errorf("abort reason = %q", res.AbortReason)
	}
	// The timeout doubled as failure detection.
	st, _ := c.Status(1, false)
	if st.Vector[0].Status != core.StatusDown {
		t.Error("donor failure not announced")
	}
	// The next attempt aborts fast with no donor at all.
	res, _ = c.Exec(1, []core.Op{core.Read(0)})
	if res.Committed || res.AbortReason != txn.AbortNoDonor {
		t.Errorf("second read: %+v", res)
	}
}

func TestAuditReportString(t *testing.T) {
	c := newTestCluster(t, Config{Sites: 2, Items: 4})
	report, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "audit OK") {
		t.Errorf("report = %q", report.String())
	}
	report.Violations = append(report.Violations, "synthetic")
	if !strings.Contains(report.String(), "FAILED") {
		t.Errorf("failed report = %q", report.String())
	}
}

// TestAuditJudgesQuorumByReadQuorums: a copy that missed writes while its
// site was down is stale but legitimate under quorum consensus — no
// fail-lock records it, reads vote past it — so Audit must judge a quorum
// cluster by the read-quorum rule, not report the copy as untracked
// divergence, and must not call it fail-locked.
func TestAuditJudgesQuorumByReadQuorums(t *testing.T) {
	c := newTestCluster(t, Config{Sites: 3, Items: 10, Policy: policy.Quorum{}})
	if err := c.Fail(1); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"x", "y"} {
		res, err := c.Exec(0, []core.Op{core.Write(2, []byte(v))})
		if err != nil || !res.Committed {
			t.Fatalf("write %s: %v %v", v, res, err)
		}
	}
	if _, err := c.Recover(1); err != nil {
		t.Fatal(err)
	}
	report, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() || report.StaleCopies != 1 {
		t.Fatalf("audit = %s with %d stale copies, want OK with site 1's one stale copy", report, report.StaleCopies)
	}
	if strings.Contains(report.String(), "fail-locked") {
		t.Errorf("quorum audit speaks of fail-locks: %q", report)
	}
}

func TestParticipantLostBetweenPhases(t *testing.T) {
	// The Appendix A.1 window: a participant acks phase one and dies
	// before phase two. The transaction still commits on the surviving
	// sites; the coordinator runs type 2 and conservatively fail-locks
	// the written items for the lost site everywhere, so recovery knows
	// those copies are suspect.
	c := newTestCluster(t, Config{Sites: 3, Items: 5})
	// Victim 2 may send one more message to the coordinator (the
	// prepare-ack) and receive one more (the prepare); then it is dark.
	c.SetLinkDropAfter(2, 0, 1)
	c.SetLinkDropAfter(0, 2, 1)

	res, err := c.Exec(0, []core.Op{core.Write(3, []byte("v2"))})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("phase-2 loss aborted the txn: %s (Appendix A commits)", res.AbortReason)
	}
	// Type-2 ran; the written item is fail-locked for site 2 at both
	// survivors.
	st0, _ := c.Status(0, true)
	if st0.Vector[2].Status != core.StatusDown {
		t.Error("lost participant not marked down")
	}
	for _, observer := range []core.SiteID{0, 1} {
		st, _ := c.Status(observer, true)
		if st.FailLocks[3]&(1<<2) == 0 {
			t.Errorf("observer %d: item 3 not fail-locked for the lost site", observer)
		}
	}
	// Complete the simulated death, heal the links, recover: the repair
	// machinery refreshes the copy via the normal copier path.
	if err := c.Fail(2); err != nil {
		t.Fatal(err)
	}
	c.SetLinkDropAfter(2, 0, -1)
	c.SetLinkDropAfter(0, 2, -1)
	if _, err := c.Recover(2); err != nil {
		t.Fatal(err)
	}
	res, err = c.Exec(2, []core.Op{core.Read(3)})
	if err != nil || !res.Committed {
		t.Fatalf("read after repair: %v %v", res, err)
	}
	if !bytes.Equal(res.Reads[0].Value, []byte("v2")) {
		t.Errorf("repaired read = %q", res.Reads[0].Value)
	}
	report, err := c.Audit()
	if err != nil || !report.OK() {
		t.Errorf("audit: %v %v", report, err)
	}
}

// TestAbortReachesSilentParticipant: a participant whose prepare ack is
// lost staged its share all the same. The abort must reach it, or its
// decision timer later announces the live coordinator failed.
func TestAbortReachesSilentParticipant(t *testing.T) {
	const ack = 40 * time.Millisecond
	c := newTestCluster(t, Config{Sites: 2, Items: 2, AckTimeout: ack})
	c.SetLinkDown(1, 0, true)
	res, err := c.Exec(0, []core.Op{core.Write(0, val(1))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("write committed without the participant's ack")
	}
	c.SetLinkDown(1, 0, false)
	time.Sleep(6 * ack)
	st, err := c.Status(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Vector[0].Status != core.StatusUp || st.Stats.ControlType2 != 0 {
		t.Fatalf("participant after abort: vector %v, type-2 %d", st.Vector, st.Stats.ControlType2)
	}
}

func TestCoordinatorLostBetweenPhases(t *testing.T) {
	// The other side of the window: both participants commit, their
	// commit acks are lost, and the coordinator fails inside the ack
	// wait. Its own copy was applied before the wait, so after recovery
	// every copy agrees and no fail-lock is needed.
	const ackTimeout = 300 * time.Millisecond
	c := newTestCluster(t, Config{Sites: 3, Items: 5, AckTimeout: ackTimeout})
	// Each participant may send the coordinator one more message (the
	// prepare-ack); its commit ack is dropped.
	c.SetLinkDropAfter(1, 0, 1)
	c.SetLinkDropAfter(2, 0, 1)

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = c.ExecTxnTimeout(0, c.NextTxnID(), []core.Op{core.Write(3, []byte("v1"))}, 2*ackTimeout)
	}()
	// Fail the coordinator once it holds the write — well inside the ack
	// wait — or, if it never applies, halfway through the wait.
	for deadline := time.Now().Add(ackTimeout / 2); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		dump, err := c.Dump(0)
		if err != nil {
			t.Fatal(err)
		}
		if dump[3].Version > 0 {
			break
		}
	}
	if err := c.Fail(0); err != nil {
		t.Fatal(err)
	}
	<-done

	c.SetLinkDropAfter(1, 0, -1)
	c.SetLinkDropAfter(2, 0, -1)
	if _, err := c.Recover(0); err != nil {
		t.Fatal(err)
	}
	report, err := c.Audit()
	if err != nil || !report.OK() {
		t.Fatalf("audit: %v %v", report, err)
	}
	res, err := c.Exec(0, []core.Op{core.Read(3)})
	if err != nil || !res.Committed {
		t.Fatalf("read after recovery: %v %v", res, err)
	}
	if !bytes.Equal(res.Reads[0].Value, []byte("v1")) {
		t.Errorf("read at the recovered coordinator = %q, want v1", res.Reads[0].Value)
	}
}
