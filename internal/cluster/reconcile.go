package cluster

import (
	"bytes"
	"fmt"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
)

// ReconcileReport summarizes one heal-time split-brain reconciliation.
type ReconcileReport struct {
	// SuspicionPairs counts directed (observer, suspect) pairs where a
	// truly-up observer's session vector marks another truly-up site
	// non-operational when reconciliation starts.
	SuspicionPairs int
	// MutualSuspicions counts unordered pairs suspecting each other —
	// the signature of a symmetric partition: both sides announced the
	// other failed and kept committing.
	MutualSuspicions int
	// DivergentItems counts items whose copies disagree in version
	// across truly-up sites — the split-brain damage (or, when already
	// fail-locked, tracked staleness) the target table must cover.
	DivergentItems int
	// LocksSet and LocksCleared count the per-table bit edits installed
	// via the special fail-lock transaction to converge every table to
	// the reconciled target.
	LocksSet, LocksCleared int
	// Repairs counts fail/recover cycles run to merge the sides'
	// session vectors after the tables agreed.
	Repairs int
}

// Detected reports whether the reconciliation found split-brain evidence.
func (r ReconcileReport) Detected() bool {
	return r.MutualSuspicions > 0 || r.DivergentItems > 0
}

// String implements fmt.Stringer.
func (r ReconcileReport) String() string {
	return fmt.Sprintf("reconcile: %d suspicion pairs (%d mutual), %d divergent items, +%d/-%d lock edits, %d repairs",
		r.SuspicionPairs, r.MutualSuspicions, r.DivergentItems, r.LocksSet, r.LocksCleared, r.Repairs)
}

// ReconcileSplitBrain merges the sides of a healed partition through the
// paper's own machinery, driven from the managing site:
//
//  1. Session-vector comparison: collect every truly-up site's vector,
//     fail-lock table and database dump; mutual suspicion between
//     truly-up sites is the split-brain signal.
//  2. Fail-lock collection: compute the reconciled table. For every item
//     the highest version among truly-up copies wins; each truly-up copy
//     behind it must carry a fail-lock, each copy at it must not. In
//     serial mode versions are transaction IDs, globally unique, and that
//     comparison is complete. In concurrent mode versions are per-item
//     commit counters, and copies AT the highest version can still
//     disagree in value: both sides of a cut committing the same number
//     of writes to an item count to the same version from the same base.
//     Version comparison is blind to that, so values at the winning
//     version are compared too, the lowest-numbered truly-up copy is
//     canonicalized, and the others are fail-locked for refresh. Bits
//     for sites that are genuinely down are merged by union — each
//     side's table tracked real staleness the other side could not
//     observe, and over-locking only costs a copier refresh.
//  3. Install the reconciled table everywhere via the special fail-lock
//     transaction (ClearFailLocks with Set for the missing bits), then
//     merge the sides' vectors with fail/recover cycles; the type-1
//     announcements re-introduce each suspect and demand copiers plus
//     the clear fan-out repair the stale copies on access (or
//     DrainFailLocks forces the refresh immediately).
//
// trueUp is the managing site's ground truth of which sites were never
// ordered to fail. Only truly-up sites' tables are edited: a down site is
// deaf to the special transaction and installs a reconciled table from
// its donor when it recovers.
//
// ROWAA runs split brains into real divergence (both sides commit); the
// quorum policies cannot diverge, but their vectors still split, so
// reconciliation degenerates to the vector merge. Call it only on a
// healed network — with links still cut the repair cycles cannot
// converge.
func (c *Manager) ReconcileSplitBrain(trueUp []bool, ackTimeout time.Duration) (ReconcileReport, error) {
	var rep ReconcileReport
	sites, items := c.sites, c.items

	replicas := c.Replicas()
	type view struct {
		id   core.SiteID
		st   *msg.StatusResp
		dump []core.ItemVersion
	}
	var views []view
	var trueUpMask uint64
	for i := 0; i < sites; i++ {
		if !trueUp[i] {
			continue
		}
		id := core.SiteID(i)
		trueUpMask |= 1 << id
		st, err := c.Status(id, true)
		if err != nil {
			return rep, err
		}
		if st.State != core.StatusUp {
			// Ground truth says up but the site thinks otherwise — a
			// recovery the caller deferred; leave it to its recovery path.
			trueUpMask &^= 1 << id
			continue
		}
		dump, err := c.Dump(id)
		if err != nil {
			return rep, err
		}
		if len(st.FailLocks) != items {
			return rep, fmt.Errorf("cluster: reconcile: %s returned %d lock words for %d items", id, len(st.FailLocks), items)
		}
		// Dumps are hosted-only under partial replication; spread each one
		// into an items-length view (step 2 only reads hosting entries).
		sparse, err := sparseDump(dump, replicas, id, items)
		if err != nil {
			return rep, fmt.Errorf("cluster: reconcile: %v", err)
		}
		views = append(views, view{id: id, st: st, dump: sparse})
	}
	if len(views) == 0 {
		return rep, fmt.Errorf("cluster: reconcile: no operational site")
	}

	// Step 1: suspicion census among truly-up sites.
	suspect := make(map[[2]core.SiteID]bool)
	for _, v := range views {
		for b, rec := range v.st.Vector {
			if core.SiteID(b) != v.id && trueUpMask&(1<<b) != 0 && rec.Status != core.StatusUp {
				rep.SuspicionPairs++
				suspect[[2]core.SiteID{v.id, core.SiteID(b)}] = true
			}
		}
	}
	for pair := range suspect {
		if pair[0] < pair[1] && suspect[[2]core.SiteID{pair[1], pair[0]}] {
			rep.MutualSuspicions++
		}
	}

	// Step 2: reconciled fail-lock table, highest version wins.
	target := make([]uint64, items)
	for item := 0; item < items; item++ {
		hostMask := replicas.HostMask(core.ItemID(item))
		var maxVer core.TxnID
		minVer := core.TxnID(0)
		first := true
		for _, v := range views {
			if hostMask&(1<<v.id) == 0 {
				continue
			}
			ver := v.dump[item].Version
			if first || ver > maxVer {
				maxVer = ver
			}
			if first || ver < minVer {
				minVer = ver
			}
			first = false
		}
		// The canonical value: the lowest-numbered truly-up copy at the
		// winning version (views are in site order). Copies at maxVer
		// with a different value are split-brain twins — both sides
		// committed their item's Nth write — and must be fail-locked so
		// the drain refreshes them from the canonical copy (Apply
		// overwrites at equal version).
		var canonical []byte
		haveCanonical := false
		for _, v := range views {
			if hostMask&(1<<v.id) != 0 && v.dump[item].Version == maxVer {
				canonical = v.dump[item].Value
				haveCanonical = true
				break
			}
		}
		valueDiverged := false
		var bits uint64
		for _, v := range views {
			if hostMask&(1<<v.id) == 0 {
				continue
			}
			switch d := v.dump[item]; {
			case d.Version < maxVer:
				bits |= 1 << v.id
			case haveCanonical && !bytes.Equal(d.Value, canonical):
				bits |= 1 << v.id
				valueDiverged = true
			}
		}
		if (!first && minVer != maxVer) || valueDiverged {
			rep.DivergentItems++
		}
		// Down sites: union of what every side tracked, hosting only.
		var downBits uint64
		for _, v := range views {
			downBits |= v.st.FailLocks[item]
		}
		target[item] = bits | (downBits & hostMask &^ trueUpMask)
	}

	// Step 3a: install the target table at every truly-up site — only
	// for policies that track staleness with fail-locks. Quorum sites
	// keep stale copies legitimately (reads vote past them), so their
	// tables stay untouched and reconciliation is just the vector merge.
	if !c.pol.UsesFailLocks() {
		up := make([]bool, sites)
		for i := 0; i < sites; i++ {
			up[i] = trueUpMask&(1<<i) != 0
		}
		repairs, err := c.RepairFalseSuspicionsWhere(up, nil, ackTimeout)
		rep.Repairs = repairs
		return rep, err
	}
	for _, v := range views {
		for s := 0; s < sites; s++ {
			var set, clear []core.ItemID
			bit := uint64(1) << s
			for item := 0; item < items; item++ {
				cur, want := v.st.FailLocks[item]&bit != 0, target[item]&bit != 0
				switch {
				case want && !cur:
					set = append(set, core.ItemID(item))
				case !want && cur:
					clear = append(clear, core.ItemID(item))
				}
			}
			if err := c.installLocks(v.id, core.SiteID(s), set, true); err != nil {
				return rep, err
			}
			if err := c.installLocks(v.id, core.SiteID(s), clear, false); err != nil {
				return rep, err
			}
			rep.LocksSet += len(set)
			rep.LocksCleared += len(clear)
		}
	}

	// Step 3b: merge the sides' session vectors. Tables now agree, so
	// whichever donor a recovering suspect picks hands it the reconciled
	// state.
	up := make([]bool, sites)
	for i := 0; i < sites; i++ {
		up[i] = trueUpMask&(1<<i) != 0
	}
	repairs, err := c.RepairFalseSuspicionsWhere(up, nil, ackTimeout)
	rep.Repairs = repairs
	return rep, err
}

// installLocks sends one special fail-lock transaction editing holder's
// table: the bits of site over items, set or cleared.
func (c *Manager) installLocks(holder, site core.SiteID, items []core.ItemID, set bool) error {
	if len(items) == 0 {
		return nil
	}
	reply, err := c.caller.CallT(c.adminTrace(), holder,
		&msg.ClearFailLocks{Site: site, Items: items, Set: set})
	if err != nil {
		return fmt.Errorf("%w: installing locks at %s: %v", ErrNoResponse, holder, err)
	}
	if _, ok := reply.Body.(*msg.ClearFailLocksAck); !ok {
		return fmt.Errorf("cluster: unexpected reply %s to fail-lock install", reply.Body.Kind())
	}
	return nil
}
