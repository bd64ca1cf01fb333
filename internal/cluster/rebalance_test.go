package cluster

import (
	"errors"
	"strings"
	"testing"

	"minraid/internal/core"
	"minraid/internal/policy"
)

// TestRebalanceRetiresLostSite is the permanent-loss end-to-end: seed
// every item, lose a host, keep writing (fail-locks accumulate against
// it), then retire it. Afterward every item must sit at its target
// degree on surviving hosts, hold its latest value, audit clean, and the
// lost site must be refused forever.
func TestRebalanceRetiresLostSite(t *testing.T) {
	const sites, items, degree = 4, 12, 2
	c := partialCluster(t, sites, items, degree)
	for i := 0; i < items; i++ {
		res, err := c.Exec(core.SiteID(i%sites), []core.Op{core.Write(core.ItemID(i), val(i))})
		if err != nil || !res.Committed {
			t.Fatalf("seed write %d: %v %v", i, res, err)
		}
	}
	failAndDetect(t, c, 1, 0)
	// Writes during the outage: items hosted by site 1 commit on their
	// surviving host and fail-lock the down copy.
	for i := 0; i < items; i++ {
		res, err := c.Exec(0, []core.Op{core.Write(core.ItemID(i), val(100+i))})
		if err != nil || !res.Committed {
			t.Fatalf("outage write %d: %v %v", i, res, err)
		}
	}

	rep, err := c.Rebalance(1)
	if err != nil {
		t.Fatalf("rebalance: %v (%s)", err, rep)
	}
	// Round-robin degree 2 of 4 puts 6 of the 12 items on site 1; every
	// one has a surviving non-hosting candidate.
	if rep.Moved != 6 || rep.Unplaced != 0 {
		t.Errorf("moved %d unplaced %d, want 6/0 (%s)", rep.Moved, rep.Unplaced, rep)
	}
	if rep.Remaining != 0 {
		t.Errorf("drain left %d fail-locks (%s)", rep.Remaining, rep)
	}
	m := c.Replicas()
	for i := 0; i < items; i++ {
		id := core.ItemID(i)
		if m.IsHost(id, 1) {
			t.Errorf("item %d still placed on the retired site", i)
		}
		if got := m.Degree(id); got != degree {
			t.Errorf("item %d degree = %d, want %d", i, got, degree)
		}
	}
	report, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() || report.StaleCopies != 0 {
		t.Errorf("post-rebalance audit: %s", report)
	}
	// Every value survived the move, including on the re-homed copies.
	for i := 0; i < items; i++ {
		res, err := c.Exec(2, []core.Op{core.Read(core.ItemID(i))})
		if err != nil || !res.Committed {
			t.Fatalf("read %d: %v %v", i, res, err)
		}
		if string(res.Reads[0].Value) != string(val(100+i)) {
			t.Errorf("item %d = %q after rebalance, want %q", i, res.Reads[0].Value, val(100+i))
		}
	}
	// The retired site can never rejoin: its copies live elsewhere now.
	if _, err := c.Recover(1); !errors.Is(err, ErrSiteRemoved) {
		t.Errorf("Recover(retired) = %v, want ErrSiteRemoved", err)
	}
	if _, err := c.Rebalance(1); !errors.Is(err, ErrSiteRemoved) {
		t.Errorf("second Rebalance = %v, want ErrSiteRemoved", err)
	}
	// The shrunken system keeps taking writes and stays consistent.
	for i := 0; i < items; i++ {
		res, err := c.Exec(3, []core.Op{core.Write(core.ItemID(i), val(200+i))})
		if err != nil || !res.Committed {
			t.Fatalf("post-rebalance write %d: %v %v", i, res, err)
		}
	}
	report, err = c.Audit()
	if err != nil || !report.OK() || report.StaleCopies != 0 {
		t.Errorf("final audit: %v %v", report, err)
	}
}

func TestRebalanceRejections(t *testing.T) {
	// Full replication: there is no site left to re-home onto.
	full := newTestCluster(t, Config{Sites: 3, Items: 3})
	failAndDetect(t, full, 1, 0)
	if _, err := full.Rebalance(1); err == nil {
		t.Error("rebalance accepted under full replication")
	}

	// A still-operational site cannot be retired.
	p := partialCluster(t, 3, 6, 2)
	if _, err := p.Rebalance(1); err == nil {
		t.Error("rebalance accepted for an operational site")
	}

	// Quorum has no fail-locks to mark a freshly placed copy stale, so a
	// re-homed copy would poison read quorums; rejected up front.
	q := newTestCluster(t, Config{
		Sites: 3, Items: 6, Policy: policy.Quorum{},
		ReplicationDegree: 2,
	})
	if _, err := q.Rebalance(1); err == nil {
		t.Error("rebalance accepted under quorum")
	}
}

// TestRemoteReadFallsBackPastSilentDonor covers the donor retry path: the
// first donor the coordinator picks is (undetectedly) down, so the read
// must announce it and fetch the copy from the item's other host instead
// of aborting.
func TestRemoteReadFallsBackPastSilentDonor(t *testing.T) {
	c := partialCluster(t, 3, 6, 2)
	// Item 1 is hosted by {1,2}; coordinator 0 holds no copy.
	res, err := c.Exec(1, []core.Op{core.Write(1, []byte("v"))})
	if err != nil || !res.Committed {
		t.Fatalf("seed: %v %v", res, err)
	}
	// Site 1 dies silently: site 0 still believes it is up and picks it
	// as the donor (lowest candidate ID).
	if err := c.Fail(1); err != nil {
		t.Fatal(err)
	}
	res, err = c.Exec(0, []core.Op{core.Read(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("read aborted (%s) despite a live second donor", res.AbortReason)
	}
	if string(res.Reads[0].Value) != "v" {
		t.Errorf("fallback read = %q", res.Reads[0].Value)
	}
	// The silent donor was a genuine failure: it must have been announced.
	st, err := c.Status(0, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Vector[1].Status != core.StatusDown {
		t.Error("silent donor not announced down by the retrying read")
	}
}

// TestAuditFlagsStrayFailLockOnNonHost: a fail-lock bit for a site that
// does not host the item is impossible protocol state under a partial
// map — the audit must call it a violation, not ignore it.
func TestAuditFlagsStrayFailLockOnNonHost(t *testing.T) {
	c := partialCluster(t, 3, 6, 2)
	// Item 0 is hosted by {0,1}. Plant a bit for non-host 2 on every
	// site so the tables still agree (a divergence violation would mask
	// the stray check).
	for s := 0; s < 3; s++ {
		c.Site(core.SiteID(s)).InjectFailLock(0, 2)
	}
	report, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if report.OK() {
		t.Fatal("stray fail-lock bit for a non-hosting site passed the audit")
	}
	if !strings.Contains(report.Violations[0], "non-hosting") {
		t.Errorf("violation = %q, want the stray-bit report", report.Violations[0])
	}
}

// TestAuditAllHostsDownIsUnavailableNotViolation: when every host of an
// item is down the audit has no copy to judge; that is unavailability
// (the protocol aborts transactions touching the item), not a violation.
func TestAuditAllHostsDownIsUnavailableNotViolation(t *testing.T) {
	c := partialCluster(t, 4, 8, 2)
	failAndDetect(t, c, 0, 2)
	failAndDetect(t, c, 1, 2)
	report, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Error(report)
	}
	// Items 0 and 4 are hosted exactly by the down pair {0,1}.
	if report.UnavailableItems != 2 {
		t.Errorf("UnavailableItems = %d, want 2", report.UnavailableItems)
	}
}
