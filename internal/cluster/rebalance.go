package cluster

import (
	"fmt"
	"sort"

	"minraid/internal/core"
	"minraid/internal/msg"
)

// RebalanceReport summarizes one permanent-loss rebalance.
type RebalanceReport struct {
	// Lost is the retired site.
	Lost core.SiteID
	// Moved counts the copies re-homed (one per item the lost site
	// hosted and a replacement host existed for).
	Moved int
	// PerSite counts the new copies each receiving site took on.
	PerSite map[core.SiteID]int
	// Unplaced counts the lost site's items left below target degree
	// because every non-hosting site was itself down.
	Unplaced int
	// Copiers is the number of copier transactions the healing drain ran
	// to populate the new copies.
	Copiers int
	// Remaining is the fail-lock population left after the drain — zero
	// when every re-homed copy was successfully populated.
	Remaining int
}

// String implements fmt.Stringer.
func (r RebalanceReport) String() string {
	return fmt.Sprintf("rebalance: %s retired, %d copies re-homed (%d unplaced), %d copiers, %d locks remaining",
		r.Lost, r.Moved, r.Unplaced, r.Copiers, r.Remaining)
}

// rehostChunk bounds the (item, new host) pairs one CtrlRehost carries.
const rehostChunk = 4096

// Rebalance permanently retires a failed site and re-replicates every
// item it hosted onto a replacement host, restoring each item's target
// degree. The placement change is installed copy-on-write at every
// operational site (CtrlRehost), the new copies are fail-locked — they
// hold no data yet — and a fail-lock drain populates them through the
// ordinary copier machinery. Afterward the lost site can never recover
// (Recover returns ErrSiteRemoved): its copies live elsewhere.
//
// Rebalance is restricted to fail-lock policies (ROWAA). Under quorum a
// freshly placed copy enters at version 0 with no fail-lock to mark it
// stale, and a read quorum containing it but missing the copies a past
// write quorum updated would return stale data — re-homing is only safe
// when staleness is tracked per copy.
//
// The cluster must be write-quiescent and, apart from the lost site,
// fully operational while Rebalance runs: the placement swap is not
// atomic across sites, and a site that misses the CtrlRehost would keep
// auditing (and fail-lock maintaining) against the old map.
func (c *Manager) Rebalance(lost core.SiteID) (RebalanceReport, error) {
	rep := RebalanceReport{Lost: lost, PerSite: map[core.SiteID]int{}}
	if int(lost) >= c.sites {
		return rep, fmt.Errorf("cluster: rebalance: site %s out of range", lost)
	}
	if !c.pol.UsesFailLocks() {
		return rep, fmt.Errorf("cluster: rebalance requires a fail-lock policy; a re-homed copy enters stale and %s cannot track that", c.pol.Name())
	}
	cur := c.Replicas()
	if cur.IsFull() {
		return rep, fmt.Errorf("cluster: rebalance: full replication leaves no site to re-home onto")
	}
	if c.removed.Load()&(1<<lost) != 0 {
		return rep, fmt.Errorf("%w: %s", ErrSiteRemoved, lost)
	}

	// Census: the lost site must be down, every other site up (a site
	// that misses the placement swap would diverge from the new map).
	up := make([]bool, c.sites)
	for i := 0; i < c.sites; i++ {
		id := core.SiteID(i)
		st, err := c.Status(id, false)
		if err != nil {
			return rep, err
		}
		up[i] = st.State == core.StatusUp
		if id == lost && up[i] {
			return rep, fmt.Errorf("cluster: rebalance: %s is still operational", lost)
		}
		if id != lost && !up[i] {
			return rep, fmt.Errorf("cluster: rebalance needs every surviving site up; %s is %s", id, st.State)
		}
	}

	// Plan: for each item the lost site hosted, the replacement is the
	// least-loaded surviving site not already hosting it (lowest ID on
	// ties, so the plan is deterministic). Loads update as copies are
	// placed, keeping the final placement balanced.
	load := make(map[core.SiteID]int, c.sites)
	for i := 0; i < c.sites; i++ {
		if id := core.SiteID(i); id != lost {
			load[id] = cur.HostedCount(id)
		}
	}
	next := cur.Clone()
	var items []core.ItemID
	var newHosts []core.SiteID
	for item := 0; item < c.items; item++ {
		id := core.ItemID(item)
		if !cur.IsHost(id, lost) {
			continue
		}
		cands := make([]core.SiteID, 0, c.sites)
		for i := 0; i < c.sites; i++ {
			if s := core.SiteID(i); s != lost && !cur.IsHost(id, s) {
				cands = append(cands, s)
			}
		}
		if len(cands) == 0 {
			rep.Unplaced++
			continue
		}
		sort.Slice(cands, func(a, b int) bool {
			if load[cands[a]] != load[cands[b]] {
				return load[cands[a]] < load[cands[b]]
			}
			return cands[a] < cands[b]
		})
		host := cands[0]
		load[host]++
		next.Rehost(id, lost, host)
		items = append(items, id)
		newHosts = append(newHosts, host)
		rep.Moved++
		rep.PerSite[host]++
	}

	// Install the new placement at every surviving site, chunked. Each
	// receiver fail-locks the re-homed copies and drops the lost site's
	// stray bits itself, so tables stay identical everywhere.
	for start := 0; start < len(items); start += rehostChunk {
		end := start + rehostChunk
		if end > len(items) {
			end = len(items)
		}
		body := &msg.CtrlRehost{Lost: lost, Items: items[start:end], NewHosts: newHosts[start:end]}
		for i := 0; i < c.sites; i++ {
			id := core.SiteID(i)
			if id == lost {
				continue
			}
			reply, err := c.caller.CallT(c.adminTrace(), id, body)
			if err != nil {
				return rep, fmt.Errorf("%w: rehost at %s: %v", ErrNoResponse, id, err)
			}
			ack, ok := reply.Body.(*msg.CtrlRehostAck)
			if !ok {
				return rep, fmt.Errorf("cluster: unexpected reply %s to rehost", reply.Body.Kind())
			}
			if !ack.OK {
				return rep, fmt.Errorf("cluster: rehost refused by %s: %s", id, ack.Reason)
			}
		}
	}

	// The managing site adopts the new map and retires the lost site
	// before the drain: audits of the healed system must judge placement
	// by the post-rebalance map.
	c.replicas.Store(next)
	for {
		old := c.removed.Load()
		if c.removed.CompareAndSwap(old, old|1<<lost) {
			break
		}
	}

	// Heal: drain the fail-locks the rehost planted so every new copy is
	// populated from an up-to-date donor through the copier machinery.
	copiers, remaining, err := c.DrainFailLocks(up, 0)
	rep.Copiers = copiers
	rep.Remaining = remaining
	return rep, err
}
