// Package experiment reproduces the paper's three experiments and the
// follow-on studies it proposes:
//
//   - Experiment 1 (§2): overhead of fail-lock maintenance, control
//     transactions and copier transactions.
//   - Experiment 2 (§3): data availability on a recovering site (Figure 1).
//   - Experiment 3 (§4): consistency of replicated copies under multiple
//     failures (Figures 2 and 3).
//   - Extensions (§3.2, §5): two-step recovery, type-3 control
//     transactions, read-fraction sensitivity, and a protocol-availability
//     comparison against the ROWA and quorum baselines.
//
// Every experiment returns a typed report whose String method renders the
// same table or figure the paper presents; cmd/raid-experiments writes them
// all, and EXPERIMENTS.md records a captured run.
package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"minraid/internal/cluster"
	"minraid/internal/core"
	"minraid/internal/failure"
	"minraid/internal/storage"
	"minraid/internal/txn"
	"minraid/internal/workload"
)

// Config carries the system parameters shared by all experiments: the
// cluster description plus the workload's knobs. The zero value is filled
// with the paper's defaults per experiment.
type Config struct {
	// Config is the cluster every run builds. Delay is the per-hop
	// communication cost: the paper measured 9ms, zero measures pure
	// protocol cost; experiment shapes hold either way, absolute times
	// only resemble the paper's with 9ms. AckTimeout defaults to 25x
	// Delay, minimum 50ms.
	cluster.Config
	// MaxOps bounds the operations per generated transaction (the §2.2 /
	// §3.1.1 parameter blocks, with Sites and Items).
	MaxOps int
	// Seed makes runs reproducible.
	Seed int64
	// ReadFraction is the probability a generated operation is a read
	// (default 0.5, the paper's equal mix).
	ReadFraction float64
	// TwoStepThreshold turns on step two of the paper's proposed two-step
	// recovery (§3.2) in RunSchedule: once at most this fraction of a
	// recovered site's items is fail-locked, its whole stale set is
	// refreshed in batch. Zero keeps recovery demand-driven.
	TwoStepThreshold float64
}

func (c Config) withDefaults(sites, items, maxOps int) Config {
	if c.Sites == 0 {
		c.Sites = sites
	}
	if c.Items == 0 {
		c.Items = items
	}
	if c.MaxOps == 0 {
		c.MaxOps = maxOps
	}
	if c.Seed == 0 {
		c.Seed = 1987 // the year of the technical report
	}
	if c.ReadFraction == 0 {
		c.ReadFraction = 0.5
	}
	if c.AckTimeout == 0 {
		c.AckTimeout = 25 * c.Delay
		if c.AckTimeout < 50*time.Millisecond {
			c.AckTimeout = 50 * time.Millisecond
		}
	}
	return c
}

// dirOrTemp resolves where a run keeps its on-disk state: dir when the
// caller named one (kept afterwards), else a fresh temporary directory
// that the returned cleanup removes.
func dirOrTemp(dir, pattern string) (string, func(), error) {
	if dir != "" {
		return dir, func() {}, nil
	}
	tmp, err := os.MkdirTemp("", pattern)
	if err != nil {
		return "", nil, err
	}
	return tmp, func() { os.RemoveAll(tmp) }, nil
}

// walStoreFactory returns a cluster.Config.StoreFactory that opens one
// write-ahead-logged store per site under dir/siteN with the given
// options, and the function that closes every store it opened. Sites
// never close their stores, so whoever builds the cluster owns the
// handles.
func walStoreFactory(dir string, opts storage.WALOptions) (func(core.SiteID) (storage.Store, error), func()) {
	var opened []*storage.WALStore
	factory := func(id core.SiteID) (storage.Store, error) {
		siteOpts := opts
		siteOpts.Dir = filepath.Join(dir, fmt.Sprintf("site%d", id))
		s, err := storage.OpenWAL(siteOpts)
		if err != nil {
			return nil, err
		}
		opened = append(opened, s)
		return s, nil
	}
	return factory, func() {
		for _, s := range opened {
			_ = s.Close()
		}
	}
}

// ScheduleResult is the outcome of driving one failure schedule with the
// paper's workload: per-transaction fail-lock series (the figures) plus
// commit/abort accounting.
type ScheduleResult struct {
	// Txns is the number of transactions issued.
	Txns int
	// Committed and Aborted partition the issued transactions.
	Committed, Aborted int
	// DataAborts counts aborts for data unavailability (no copier donor)
	// — the quantity scenario 1 reports as 13 and scenario 2 as 0.
	DataAborts int
	// DetectionAborts counts aborts that detected a site failure (the
	// transaction that times out and runs the type-2 announcement).
	DetectionAborts int
	// Copiers is the total number of demand copier transactions
	// requested by database transactions.
	Copiers int
	// BatchCopiers is the number of copier transactions step two of
	// two-step recovery ran; zero unless Config.TwoStepThreshold is set.
	BatchCopiers int
	// FailLocks[k][i] is the number of items fail-locked for site k
	// after transaction i+1, as observed by that transaction's (up)
	// coordinator — the y-axis of Figures 1-3.
	FailLocks map[core.SiteID][]float64
	// FullyRecoveredAt is the 1-based transaction number after which no
	// fail-locks remained for any site, or 0 if that never happened.
	FullyRecoveredAt int
	// AuditOK reports the final cross-site consistency audit.
	AuditOK bool
	// AuditDetail holds the audit's String rendering.
	AuditDetail string
	// Percentiles holds the run's merged latency histograms and message
	// counts (-percentiles view).
	Percentiles *PercentileReport
}

// RunSchedule drives the schedule with the paper's uniform workload. If
// sched.Txns is zero the run continues until every fail-lock clears
// (capped at capTxns).
//
// With cfg.TwoStepThreshold set, a site is armed from its recovery until
// its next failure. After the first transaction that leaves an armed
// site's locked fraction at or below the threshold, the managing site runs
// the heal step there once, as one read batch over the whole stale set
// (DrainFailLocks), and disarms it: the batch is step two, in the same
// place in the transaction sequence on every run.
func RunSchedule(cfg Config, sched failure.Schedule, capTxns int) (*ScheduleResult, error) {
	cfg = cfg.withDefaults(2, 50, 5)
	if cfg.TwoStepThreshold < 0 || cfg.TwoStepThreshold > 1 {
		return nil, fmt.Errorf("experiment: two-step threshold %v out of [0,1]", cfg.TwoStepThreshold)
	}
	if err := sched.Validate(cfg.Sites); err != nil {
		return nil, err
	}
	c, err := cluster.New(cfg.Config)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	gen := workload.NewUniform(cfg.Items, cfg.MaxOps, cfg.Seed)
	gen.ReadFraction = cfg.ReadFraction
	res := &ScheduleResult{FailLocks: make(map[core.SiteID][]float64)}
	for i := 0; i < cfg.Sites; i++ {
		res.FailLocks[core.SiteID(i)] = nil
	}

	limit := sched.Txns
	openEnded := limit == 0
	if openEnded {
		limit = capTxns
	}

	up := make([]bool, cfg.Sites)
	for i := range up {
		up[i] = true
	}
	armed := make([]bool, cfg.Sites)
	everLocked := false
	for txnNum := 1; txnNum <= limit; txnNum++ {
		for _, e := range sched.EventsBefore(txnNum) {
			switch e.Kind {
			case failure.Fail:
				if err := c.Fail(e.Site); err != nil {
					return nil, fmt.Errorf("experiment: %s: %w", e, err)
				}
				up[e.Site], armed[e.Site] = false, false
				if len(upSites(up)) == 0 {
					return nil, fmt.Errorf("experiment: %s leaves no site up", e)
				}
			case failure.Recover:
				if _, err := c.Recover(e.Site); err != nil {
					return nil, fmt.Errorf("experiment: %s: %w", e, err)
				}
				up[e.Site], armed[e.Site] = true, cfg.TwoStepThreshold > 0
			}
		}

		coord := pickCoordinator(up, txnNum)
		id := c.NextTxnID()
		ops := gen.Next(id)
		out, err := c.ExecTxn(coord, id, ops)
		if err != nil {
			return nil, fmt.Errorf("experiment: txn %d on %s: %w", txnNum, coord, err)
		}
		res.Txns++
		if out.Committed {
			res.Committed++
		} else {
			res.Aborted++
			switch out.AbortReason {
			case txn.AbortNoDonor, txn.AbortDonorDown:
				res.DataAborts++
			case txn.AbortParticipantDown:
				res.DetectionAborts++
			}
		}
		res.Copiers += int(out.Copiers)

		// Observe the fail-lock state through the (operational)
		// coordinator, as the managing site would.
		st, err := c.Status(coord, false)
		if err != nil {
			return nil, err
		}
		healed := false
		for k, on := range armed {
			if !on || float64(st.FailLockCounts[k])/float64(cfg.Items) > cfg.TwoStepThreshold {
				continue
			}
			only := make([]bool, cfg.Sites)
			only[k] = true
			n, _, err := c.DrainFailLocks(only, cfg.Items)
			if err != nil {
				return nil, fmt.Errorf("experiment: batch refresh of site %d after txn %d: %w", k, txnNum, err)
			}
			res.BatchCopiers += n
			armed[k], healed = false, true
		}
		if healed {
			if st, err = c.Status(coord, false); err != nil {
				return nil, err
			}
		}
		total := 0
		for k := 0; k < cfg.Sites; k++ {
			n := int(st.FailLockCounts[k])
			res.FailLocks[core.SiteID(k)] = append(res.FailLocks[core.SiteID(k)], float64(n))
			total += n
		}
		if total > 0 {
			everLocked = true
			res.FullyRecoveredAt = 0
		} else if everLocked && res.FullyRecoveredAt == 0 {
			res.FullyRecoveredAt = txnNum
			if openEnded {
				break
			}
		}
	}

	report, err := c.Audit()
	if err != nil {
		return nil, err
	}
	res.AuditOK = report.OK()
	res.AuditDetail = report.String()
	res.Percentiles = CollectPercentiles(c)
	return res, nil
}
