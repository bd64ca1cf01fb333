package main

import (
	"fmt"
	"time"

	"minraid/internal/core"
)

// cycle is one fail/recover cycle, the paper's own regime: a steady
// segment, Fail(k), the outage until a survivor commits a writing
// transaction again, a degraded segment during which fail-locks for k
// accumulate, Recover(k) (the type-1 control transaction), a drain of the
// fail-locks through copier transactions, and optionally an audit.
type cycle struct {
	steady, degraded phase
	steadyCost       counters
	// outage runs from the Fail order to the reply of the first writing
	// transaction a survivor commits; outageAborts counts the attempts
	// that failure detection aborted on the way.
	outage       time.Duration
	outageAborts int
	recover      time.Duration
	// locked is the number of copies fail-locked for k when it recovered,
	// copiers the copier transactions the drain ran, drain its duration.
	locked, copiers int
	drain           time.Duration
	audit           time.Duration
	// unclean says what went wrong in a cycle that needed repair.
	unclean string
}

// drainBatch is the number of fail-locked items one drain transaction
// reads (DrainFailLocks' maxOps): each such transaction is one round of
// copier requests, so on a WAN the batch size sets the drain's length.
const drainBatch = 64

// maxOutageTries bounds the writing transactions tried during one outage;
// detection takes one ack timeout, so a healthy cycle needs two.
const maxOutageTries = 50

// cycle runs one fail/recover cycle with the given number of closed-loop
// clients. It returns an error only when the cluster could not be brought
// back to a clean state.
//
// The site that fails is always the highest-numbered one: a coordinator's
// fan-out then has no slot after the dead site's, which keeps
// transport.Caller's shared deadline from misreading a reply that arrived
// in time as a timeout (see README.md, "Fail/recover cycles that go
// wrong").
func (dr *driver) cycle(clients int, probe *storeProbe) (cycle, error) {
	spec := dr.d.spec
	c := dr.d.c
	k := core.SiteID(spec.Sites - 1)
	var cy cycle
	var err error
	if spec.Steady > 0 {
		cy.steady, cy.steadyCost, err = dr.d.costOf(probe, func() phase {
			return dr.closed(clients, spec.Steady, time.Time{})
		})
		if err != nil {
			return cy, err
		}
	}

	failAt := time.Now()
	if err := c.Fail(k); err != nil {
		return cy, err
	}
	dr.down.Store(int32(k))
	abortsBefore := dr.abortTotal()
	recovered := false
	for try := 0; try < maxOutageTries && !recovered; {
		seq := dr.lanes.next(0, 1)
		if !HasWrites(dr.stream.Next(seq)) {
			continue
		}
		try++
		_, recovered = dr.exec(seq)
	}
	cy.outage = time.Since(failAt)
	cy.outageAborts = dr.abortTotal() - abortsBefore
	if !recovered {
		return cy, fmt.Errorf("no writing transaction committed in %d tries after failing %s", maxOutageTries, k)
	}

	abortsBefore = dr.abortTotal()
	cy.degraded = dr.closed(clients, spec.Degraded, time.Time{})
	// A survivor that suspects another survivor has detected a failure
	// that did not happen; the cycle is then repaired below.
	for i := 0; i < spec.Sites; i++ {
		if core.SiteID(i) == k {
			continue
		}
		st, err := c.Status(core.SiteID(i), false)
		if err != nil {
			return cy, err
		}
		for j, rec := range st.Vector {
			if core.SiteID(j) != k && rec.Status != core.StatusUp {
				cy.unclean = fmt.Sprintf("%s falsely suspects %s", core.SiteID(i), core.SiteID(j))
			}
		}
	}
	if n := dr.abortTotal() - abortsBefore; n > 0 && spec.Concurrent <= 1 && cy.unclean == "" {
		cy.unclean = fmt.Sprintf("%d aborts in the degraded segment", n)
	}

	t0 := time.Now()
	_, err = c.Recover(k)
	cy.recover = time.Since(t0)
	dr.down.Store(-1)
	if err != nil {
		cy.unclean = "recover: " + err.Error()
		if _, err := c.RecoverWithRetry(k, spec.AckTimeout); err != nil {
			return cy, err
		}
	}

	allUp := dr.allUp()
	if cy.locked, err = c.FailLockCount(0, k); err != nil {
		return cy, err
	}
	t0 = time.Now()
	copiers, remaining, err := c.DrainFailLocks(allUp, drainBatch)
	cy.drain = time.Since(t0)
	cy.copiers = copiers
	if err != nil {
		return cy, err
	}
	if remaining != 0 && cy.unclean == "" {
		cy.unclean = fmt.Sprintf("%d fail-locks left after the drain", remaining)
	}

	if spec.cyclesOnly() && cy.unclean == "" {
		t0 = time.Now()
		rep, err := c.Audit()
		cy.audit = time.Since(t0)
		if err != nil {
			return cy, err
		}
		if !rep.OK() || rep.StaleCopies != 0 {
			cy.unclean = fmt.Sprintf("audit after the drain: %s, %d stale copies", rep, rep.StaleCopies)
		}
	}
	if cy.unclean == "" {
		return cy, nil
	}

	return cy, dr.repair(cy.unclean)
}

// repair brings a cluster in which a site wrongly suspects another back
// to a clean state with the managing site's own tools, and insists on a
// clean audit before anything builds on that state.
func (dr *driver) repair(why string) error {
	spec, c := dr.d.spec, dr.d.c
	allUp := dr.allUp()
	if _, err := c.RepairFalseSuspicions(allUp, spec.AckTimeout); err != nil {
		return fmt.Errorf("repairing (%s): %w", why, err)
	}
	if _, err := c.ReconcileSplitBrain(allUp, spec.AckTimeout); err != nil {
		return fmt.Errorf("reconciling (%s): %w", why, err)
	}
	if _, _, err := c.DrainFailLocks(allUp, drainBatch); err != nil {
		return fmt.Errorf("draining after repair (%s): %w", why, err)
	}
	if _, _, err := dr.d.settle(5 * time.Second); err != nil {
		return fmt.Errorf("after repairing (%s): %w", why, err)
	}
	return nil
}

// allUp is the managing site's ground truth once no site is ordered down.
func (dr *driver) allUp() []bool {
	up := make([]bool, dr.d.spec.Sites)
	for i := range up {
		up[i] = true
	}
	return up
}

func (dr *driver) abortTotal() int {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	n := 0
	for _, v := range dr.aborts {
		n += v
	}
	return n
}
