package cluster

import (
	"bytes"
	"fmt"

	"minraid/internal/core"
	"minraid/internal/msg"
)

// AuditReport is the result of a cross-site consistency audit.
type AuditReport struct {
	// ItemsChecked is the number of items compared.
	ItemsChecked int
	// CopiesCompared is the total number of (item, site) copies examined.
	CopiesCompared int
	// StaleCopies counts copies that are behind but properly fail-locked
	// — expected inconsistency, correctly tracked — or, under a policy
	// without fail-locks, behind but outvoted by every read quorum.
	StaleCopies int
	// UnavailableItems counts items with no up-to-date copy on any
	// operational site — possible under partial replication when every
	// hosting site is down or stale, and not a violation (the protocol
	// aborts transactions touching them).
	UnavailableItems int
	// Violations lists real consistency violations: copies that differ
	// without a fail-lock recording the fact, or fail-locked copies that
	// are somehow ahead of the fresh version.
	Violations []string
	// Quorum reports that the quorum-consensus rule ran (the policy keeps
	// no fail-locks).
	Quorum bool
}

// OK reports whether the audit found no violations.
func (r AuditReport) OK() bool { return len(r.Violations) == 0 }

// String implements fmt.Stringer.
func (r AuditReport) String() string {
	if r.OK() {
		stale := "properly fail-locked stale copies"
		if r.Quorum {
			stale = "stale copies outvoted by every read quorum"
		}
		return fmt.Sprintf("audit OK: %d items, %d copies, %d %s",
			r.ItemsChecked, r.CopiesCompared, r.StaleCopies, stale)
	}
	return fmt.Sprintf("audit FAILED: %d violations (first: %s)", len(r.Violations), r.Violations[0])
}

// Replicas returns the managing site's current view of the placement —
// the configured replication degree's map, updated when Rebalance re-homes
// a lost site's copies.
func (c *Manager) Replicas() *core.ReplicaMap {
	return c.replicas.Load()
}

// auditQuorum verifies the quorum-consensus invariant: for every item,
// at least degree−readQuorum(degree)+1 of its hosting copies hold the
// latest committed version, so any read quorum over the item's copies
// intersects the fresh ones — divergence is impossible by construction,
// no fail-locks involved. Quorums are sized per item from its hosting
// degree, so the audit is exact under partial replication too. Two
// copies at the same version with different values is the hard
// violation: committed divergence, which quorum writes can never
// produce. Run it fully healed with every site up; quorum holds its
// invariant through partitions (the minority side aborts), but a down
// site hides copies this audit must count.
func (c *Manager) auditQuorum() (AuditReport, error) {
	report := AuditReport{Quorum: true}
	sites, items := c.Sites(), c.Items()
	replicas := c.Replicas()
	views, err := c.upViews(nil)
	if err != nil {
		return report, err
	}
	if len(views) != sites {
		return report, fmt.Errorf("cluster: quorum audit needs every site up; %d of %d are", len(views), sites)
	}
	for item := 0; item < items; item++ {
		report.ItemsChecked++
		hostMask := replicas.HostMask(core.ItemID(item))
		degree := replicas.Degree(core.ItemID(item))
		need := degree - c.pol.ReadQuorum(degree) + 1
		var fresh core.ItemVersion
		for _, v := range views {
			if hostMask&(1<<v.id) == 0 {
				continue
			}
			report.CopiesCompared++
			if iv := v.dump[item]; iv.Version > fresh.Version {
				fresh = iv
			}
		}
		atFresh := 0
		for _, v := range views {
			if hostMask&(1<<v.id) == 0 {
				continue
			}
			iv := v.dump[item]
			if iv.Version != fresh.Version {
				report.StaleCopies++
				continue
			}
			if !bytes.Equal(iv.Value, fresh.Value) {
				report.Violations = append(report.Violations, fmt.Sprintf(
					"item %d: %s holds version %d with a different value — committed divergence",
					item, v.id, iv.Version))
				continue
			}
			atFresh++
		}
		if fresh.Version != 0 && atFresh < need {
			report.Violations = append(report.Violations, fmt.Sprintf(
				"item %d: only %d of %d copies at fresh version %d, read quorum %d needs %d",
				item, atFresh, degree, fresh.Version, c.pol.ReadQuorum(degree), need))
		}
	}
	return report, nil
}

// sparseDump validates a site's dump against the replica placement and
// spreads it into an items-length array indexed by ItemID. A hosted-only
// dump carries exactly the site's hosted copies (the sparse audit wire
// format); a full-replication dump carries one copy per item. Entries
// for items the site does not host stay zero and must never be compared.
func sparseDump(dump []core.ItemVersion, replicas *core.ReplicaMap, id core.SiteID, items int) ([]core.ItemVersion, error) {
	want := items
	if !replicas.IsFull() {
		want = replicas.HostedCount(id)
	}
	if len(dump) != want {
		return nil, fmt.Errorf("cluster: %s returned %d copies, want %d", id, len(dump), want)
	}
	out := make([]core.ItemVersion, items)
	for _, iv := range dump {
		if int(iv.Item) >= items {
			return nil, fmt.Errorf("cluster: %s dumped out-of-range item %d", id, iv.Item)
		}
		if !replicas.IsHost(iv.Item, id) {
			return nil, fmt.Errorf("cluster: %s dumped item %d it does not host", id, iv.Item)
		}
		out[iv.Item] = iv
	}
	return out, nil
}

// siteView is one operational site as the managing site reads it: its
// status, with the full fail-lock table, and its copies spread into an
// items-length view (see sparseDump).
type siteView struct {
	id   core.SiteID
	st   *msg.StatusResp
	dump []core.ItemVersion
}

// upViews reads every site only marks (nil marks all) and returns the
// views of those that report themselves up, in site order. Fail-lock
// tables are fully replicated regardless of placement, so each must hold
// one word per item.
func (c *Manager) upViews(only []bool) ([]siteView, error) {
	replicas := c.Replicas()
	var views []siteView
	for i := 0; i < c.sites; i++ {
		if only != nil && !only[i] {
			continue
		}
		id := core.SiteID(i)
		st, err := c.Status(id, true)
		if err != nil {
			return nil, err
		}
		if st.State != core.StatusUp {
			continue
		}
		dump, err := c.Dump(id)
		if err != nil {
			return nil, err
		}
		if len(st.FailLocks) != c.items {
			return nil, fmt.Errorf("cluster: %s returned %d lock words for %d items", id, len(st.FailLocks), c.items)
		}
		sparse, err := sparseDump(dump, replicas, id, c.items)
		if err != nil {
			return nil, err
		}
		views = append(views, siteView{id: id, st: st, dump: sparse})
	}
	return views, nil
}

// Audit verifies the system's core invariant: every pair of copies of an
// item on operational sites is identical unless a fail-lock records that
// one of them missed updates — "fail-locks can properly track the location
// of the correct values for data items even when these values are spread
// out over multiple sites" (§5). Under a policy without fail-locks it
// checks the quorum-consensus invariant instead (see auditQuorum).
//
// The audit is driven from the managing site using dumps and status
// probes. It should be run while no transactions are in flight.
func (c *Manager) Audit() (AuditReport, error) {
	if !c.pol.UsesFailLocks() {
		return c.auditQuorum()
	}
	var report AuditReport
	items := c.Items()
	replicas := c.Replicas()

	views, err := c.upViews(nil)
	if err != nil {
		return report, err
	}
	if len(views) == 0 {
		return report, fmt.Errorf("cluster: no operational site to audit")
	}

	// Fail-lock tables of operational sites must agree; the first is the
	// reference the copies are judged by.
	ref, locks := views[0].id, views[0].st.FailLocks
	for _, v := range views[1:] {
		for item := 0; item < items; item++ {
			if locks[item] != v.st.FailLocks[item] {
				report.Violations = append(report.Violations, fmt.Sprintf(
					"fail-lock tables diverge on item %d: %s=%#x %s=%#x",
					item, ref, locks[item], v.id, v.st.FailLocks[item]))
			}
		}
	}

	for item := 0; item < items; item++ {
		report.ItemsChecked++
		hostMask := replicas.HostMask(core.ItemID(item))
		if stray := locks[item] &^ hostMask; stray != 0 {
			report.Violations = append(report.Violations, fmt.Sprintf(
				"item %d: fail-locks %#x set for non-hosting sites", item, stray))
		}
		// The fresh version is the max across up-to-date operational
		// hosting copies; non-hosting sites hold no copy to compare.
		var fresh core.ItemVersion
		haveFresh := false
		hostingUp := 0
		for _, v := range views {
			if hostMask&(1<<v.id) == 0 {
				continue
			}
			hostingUp++
			report.CopiesCompared++
			if locks[item]&(1<<v.id) != 0 {
				continue // this copy is fail-locked: stale by design
			}
			iv := v.dump[item]
			if !haveFresh || iv.Version > fresh.Version {
				fresh = iv
				haveFresh = true
			}
		}
		if !haveFresh {
			if hostingUp == 0 || !replicas.IsFull() {
				// All hosts down (or all their copies stale): data
				// unavailable, which the protocol handles by aborting.
				report.UnavailableItems++
				continue
			}
			report.Violations = append(report.Violations, fmt.Sprintf(
				"item %d: every operational copy is fail-locked", item))
			continue
		}
		for _, v := range views {
			if hostMask&(1<<v.id) == 0 {
				continue
			}
			iv := v.dump[item]
			locked := locks[item]&(1<<v.id) != 0
			switch {
			case locked:
				report.StaleCopies++
				if iv.Version > fresh.Version {
					report.Violations = append(report.Violations, fmt.Sprintf(
						"item %d: fail-locked copy on %s has version %d ahead of fresh %d",
						item, v.id, iv.Version, fresh.Version))
				}
			case iv.Version != fresh.Version || !bytes.Equal(iv.Value, fresh.Value):
				report.Violations = append(report.Violations, fmt.Sprintf(
					"item %d: unlocked copy on %s (v%d) differs from fresh (v%d)",
					item, v.id, iv.Version, fresh.Version))
			}
		}
	}
	return report, nil
}
