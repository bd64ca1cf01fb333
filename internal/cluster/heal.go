package cluster

import (
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
)

// healExec runs one heal read batch coordinated at site at. DrainFailLocks
// passes Manager.Exec; the scrubber passes a paced, privately numbered,
// bounded-wait variant.
type healExec func(at core.SiteID, ops []core.Op) (*msg.TxnResult, error)

// healPass is what one heal step found and did at one site: the hosted
// items it held fail-locked for itself when probed, the items read under
// committed batches (each clean once its batch commits), and the copier
// transactions the batches ran, committed or not.
type healPass struct{ locked, healed, copiers int }

// healSite is the one heal step both healers run at a site: probe its
// table (waiting at most probeTimeout; non-positive means the manager
// timeout), list the hosted items it holds fail-locked for itself, and
// read them through exec in transactions of at most batch reads
// coordinated there. Reading a fail-locked local copy runs a demand
// copier against an up-to-date donor and the clear fan-out propagates the
// cleared bit everywhere (§1.2), so healing needs no repair primitive of
// its own. An aborted batch (no donor reachable yet, a lock conflict)
// leaves its locks for a later pass and the step goes on with the next;
// an exec error ends the step. A nil exec only counts.
func (c *Manager) healSite(id core.SiteID, probeTimeout time.Duration, batch int, exec healExec) (healPass, error) {
	st, err := c.StatusTimeout(id, true, probeTimeout)
	if err != nil {
		return healPass{}, err
	}
	locked := lockedOwnCopies(st, c.Replicas())
	h := healPass{locked: len(locked)}
	for exec != nil && len(locked) > 0 {
		n := min(batch, len(locked))
		ops := make([]core.Op, n)
		for i, item := range locked[:n] {
			ops[i] = core.Read(item)
		}
		locked = locked[n:]
		res, err := exec(id, ops)
		if err != nil {
			return h, err
		}
		h.copiers += int(res.Copiers)
		if res.Committed {
			h.healed += n
		}
	}
	return h, nil
}

// lockedOwnCopies lists the items st's site holds fail-locked for itself,
// restricted to the items it hosts, and nothing for a site that is not up:
// its locks are correct state no read there can heal. A bit for a
// non-hosted copy cannot be refreshed by reading there either (the
// demand-copier path only covers hosted items); the audit flags it as
// stray instead.
func lockedOwnCopies(st *msg.StatusResp, replicas *core.ReplicaMap) []core.ItemID {
	if st.State != core.StatusUp {
		return nil
	}
	var out []core.ItemID
	for item, bits := range st.FailLocks {
		if bits&(1<<st.Site) != 0 && replicas.IsHost(core.ItemID(item), st.Site) {
			out = append(out, core.ItemID(item))
		}
	}
	return out
}

// DrainFailLocks refreshes every fail-locked copy held by a truly-up site
// by running the heal step there with Exec, maxOps reads per transaction.
// It returns the number of copier refreshes run and how many (item,
// truly-up site) locks remain — zero on a healed, fully-recovered system;
// locks for genuinely down sites are correct state and are not counted or
// drained.
//
// Passes repeat until a pass makes no progress — it ran no copier and the
// lock population did not shrink. A fixed pass count is not enough: a
// donor refuses a copy request while its own copy of the item is
// fail-locked, so divergent tables can chain heals (each pass unblocks
// exactly one more donor) arbitrarily deep, one pass per link.
func (c *Manager) DrainFailLocks(trueUp []bool, maxOps int) (copiers, remaining int, err error) {
	if maxOps <= 0 {
		maxOps = 8
	}
	// Every productive pass clears at least one (item, site) lock, so the
	// lock population bounds the passes; the cap only guards the loop
	// against an unforeseen live-lock.
	maxPasses := c.sites*c.items + 2
	prevTotal := -1
	for pass := 0; pass < maxPasses; pass++ {
		total, passCopiers := 0, 0
		for i := 0; i < c.sites; i++ {
			if !trueUp[i] {
				continue
			}
			h, err := c.healSite(core.SiteID(i), 0, maxOps, c.Exec)
			if err != nil {
				return copiers, 0, err
			}
			total += h.locked
			passCopiers += h.copiers
		}
		copiers += passCopiers
		if total == 0 {
			break
		}
		// No copier ran and the population did not shrink since the last
		// pass: nothing left that this drain can heal (locks whose donors
		// are genuinely unreachable). prevTotal starts at -1 so a pass of
		// transient aborts still gets one retry.
		if passCopiers == 0 && prevTotal >= 0 && total >= prevTotal {
			break
		}
		prevTotal = total
	}
	remaining, err = c.FailLocksRemaining(trueUp, 0)
	return copiers, remaining, err
}

// FailLocksRemaining counts the (item, site) fail-locks truly-up sites
// hold on their own copies — the population both healers work down; zero
// on a fully-recovered, converged system. A nil trueUp counts at every
// site; either way a site not up counts nothing, since its locks are
// correct state. probeTimeout bounds each status probe (non-positive: the
// manager timeout), so a crashed process costs one bounded wait.
func (c *Manager) FailLocksRemaining(trueUp []bool, probeTimeout time.Duration) (int, error) {
	total := 0
	for i := 0; i < c.sites; i++ {
		if trueUp != nil && !trueUp[i] {
			continue
		}
		h, err := c.healSite(core.SiteID(i), probeTimeout, 0, nil)
		if err != nil {
			return total, err
		}
		total += h.locked
	}
	return total, nil
}
