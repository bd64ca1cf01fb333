package cluster

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
)

// RecoverWithRetry recovers a site, retrying when the donor handshake is
// lost in transit (the recovery multicast and its replies travel
// site-to-site links, which may be chaotic). Returns the number of
// blocked attempts retried.
func (c *Manager) RecoverWithRetry(id core.SiteID, ackTimeout time.Duration) (int, error) {
	n, _, err := c.recoverWithRetry(id, ackTimeout)
	return n, err
}

// recoverWithRetry also returns the site's status reply to the last attempt.
func (c *Manager) recoverWithRetry(id core.SiteID, ackTimeout time.Duration) (int, *msg.StatusResp, error) {
	const attempts = 8
	var st *msg.StatusResp
	var err error
	for i := 0; i < attempts; i++ {
		if st, err = c.Recover(id); err == nil {
			return i, st, nil
		}
		if !errors.Is(err, ErrRecoveryBlocked) {
			return i, st, err
		}
		time.Sleep(ackTimeout / 2)
	}
	return attempts, st, err
}

// RepairFalseSuspicions probes every truly-up site's session vector and,
// while some truly-up site is marked failed by another truly-up site,
// completes the declared failure (Fail) and heals it (Recover): the type-1
// recovery announcement re-introduces the suspect to everyone, and demand
// copiers refresh whatever it missed or wrote solo. Divergence the suspect
// accumulated is fail-locked on both sides throughout, so the audit
// invariant holds across the repair. trueUp is the caller's ground truth
// of which sites have not been ordered to fail; the managing site always
// has it, since its orders are the only source of real failures.
func (c *Manager) RepairFalseSuspicions(trueUp []bool, ackTimeout time.Duration) (int, error) {
	return c.RepairFalseSuspicionsWhere(trueUp, nil, ackTimeout)
}

// RepairFalseSuspicionsWhere is RepairFalseSuspicions restricted to the
// (observer, suspect) pairs eligible accepts (nil accepts every pair). A
// partition-aware soak excludes pairs touched by the active network
// episode: their suspicion is legitimate evidence of the cut, not a false
// positive, and resolving it must wait for heal-time reconciliation.
func (c *Manager) RepairFalseSuspicionsWhere(trueUp []bool, eligible func(observer, suspect core.SiteID) bool, ackTimeout time.Duration) (int, error) {
	repairs := 0
	maxRounds := 2 * len(trueUp)
	// Per round: who suspected whom, and the suspect's session as the
	// observer recorded it and as the repair left it.
	var rounds []string
	for round := 0; round < maxRounds; round++ {
		suspect := core.SiteID(0)
		found := false
	probe:
		for a, aUp := range trueUp {
			if !aUp {
				continue
			}
			st, err := c.Status(core.SiteID(a), false)
			if err != nil {
				return repairs, err
			}
			for b, rec := range st.Vector {
				if b != a && trueUp[b] && rec.Status != core.StatusUp {
					if eligible != nil && !eligible(core.SiteID(a), core.SiteID(b)) {
						continue
					}
					suspect = core.SiteID(b)
					found = true
					rounds = append(rounds, fmt.Sprintf("%s suspects %s (session %d", core.SiteID(a), suspect, rec.Session))
					break probe
				}
			}
		}
		if !found {
			return repairs, nil
		}
		if err := c.Fail(suspect); err != nil {
			return repairs, err
		}
		_, st, err := c.recoverWithRetry(suspect, ackTimeout)
		if err != nil {
			return repairs, err
		}
		rounds[round] += fmt.Sprintf(" -> %d)", st.Session)
		repairs++
	}
	return repairs, fmt.Errorf("cluster: false-suspicion repair did not converge after %d rounds: %s", maxRounds, strings.Join(rounds, ", "))
}
