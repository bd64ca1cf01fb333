package experiment

import (
	"fmt"
	"strings"
	"time"

	"minraid/internal/cluster"
	"minraid/internal/core"
	"minraid/internal/site"
	"minraid/internal/workload"
)

// Experiment 1 parameters (§2.2): 50 items, 4 sites, max transaction
// size 10.
const (
	exp1Items  = 50
	exp1Sites  = 4
	exp1MaxOps = 10
)

// FailLockOverheadReport is the §2.2.1 table: coordinator and participant
// transaction times with and without the fail-lock maintenance code.
type FailLockOverheadReport struct {
	Txns         int
	CoordWith    time.Duration
	CoordWithout time.Duration
	PartWith     time.Duration
	PartWithout  time.Duration
	// Percentiles holds the with-fail-locks arm's latency histograms
	// (the production configuration).
	Percentiles *PercentileReport
}

// CoordOverheadPct returns the coordinator-side overhead percentage
// (paper: 176->186 ms, +5.7%).
func (r FailLockOverheadReport) CoordOverheadPct() float64 {
	return pctIncrease(r.CoordWithout, r.CoordWith)
}

// PartOverheadPct returns the participant-side overhead percentage
// (paper: 90->97 ms, +7.8%).
func (r FailLockOverheadReport) PartOverheadPct() float64 {
	return pctIncrease(r.PartWithout, r.PartWith)
}

func pctIncrease(base, with time.Duration) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(with-base) / float64(base)
}

// String renders the §2.2.1 table.
func (r FailLockOverheadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment 1a: overhead for fail-locks maintenance (%d txns per cell)\n", r.Txns)
	fmt.Fprintf(&b, "%-20s %16s %16s %10s  %s\n", "", "without fail-locks", "with fail-locks", "overhead", "tail (with)")
	fmt.Fprintf(&b, "%-20s %16v %16v %9.1f%%  %s\n", "Coordinating site", r.CoordWithout.Round(time.Microsecond), r.CoordWith.Round(time.Microsecond), r.CoordOverheadPct(), r.Percentiles.p95p99(site.TimerCoordTxn))
	fmt.Fprintf(&b, "%-20s %16v %16v %9.1f%%  %s\n", "Participating site", r.PartWithout.Round(time.Microsecond), r.PartWith.Round(time.Microsecond), r.PartOverheadPct(), r.Percentiles.p95p99(site.TimerPartTxn))
	return b.String()
}

// RunOverheadFailLocks reproduces §2.2.1: run the same transaction set
// with the fail-lock maintenance code removed and then included, measuring
// coordinator and participant transaction times. "The transactions did not
// generate any copier transactions" — no failures occur.
func RunOverheadFailLocks(cfg Config, warmup, measured int) (*FailLockOverheadReport, error) {
	cfg = cfg.withDefaults(exp1Sites, exp1Items, exp1MaxOps)
	report := &FailLockOverheadReport{Txns: measured}

	for _, disable := range []bool{true, false} {
		ccfg := cfg.Config
		ccfg.DisableFailLockMaintenance = disable
		coord, part, pct, err := measureTxnTimes(cfg, ccfg, warmup, measured)
		if err != nil {
			return nil, err
		}
		if disable {
			report.CoordWithout, report.PartWithout = coord, part
		} else {
			report.CoordWith, report.PartWith = coord, part
			report.Percentiles = pct
		}
	}
	return report, nil
}

// measureTxnTimes runs the paper's workload and returns the mean
// coordinator and participant transaction times over the measured window.
func measureTxnTimes(cfg Config, ccfg cluster.Config, warmup, measured int) (coord, part time.Duration, pct *PercentileReport, err error) {
	c, err := cluster.New(ccfg)
	if err != nil {
		return 0, 0, nil, err
	}
	defer c.Close()
	gen := workload.NewUniform(cfg.Items, cfg.MaxOps, cfg.Seed)

	runOne := func() error {
		id := c.NextTxnID()
		coordSite := core.SiteID(uint64(id) % uint64(cfg.Sites))
		out, err := c.ExecTxn(coordSite, id, gen.Next(id))
		if err != nil {
			return err
		}
		if !out.Committed {
			return fmt.Errorf("experiment 1: unexpected abort: %s", out.AbortReason)
		}
		return nil
	}

	// "The execution times of processing events were recorded after a
	// stable state of transaction processing was achieved" (§2.1).
	for i := 0; i < warmup; i++ {
		if err := runOne(); err != nil {
			return 0, 0, nil, err
		}
	}
	for i := 0; i < cfg.Sites; i++ {
		c.Registry(core.SiteID(i)).Reset()
	}
	for i := 0; i < measured; i++ {
		if err := runOne(); err != nil {
			return 0, 0, nil, err
		}
	}

	var coordTotal, partTotal time.Duration
	var coordN, partN uint64
	for i := 0; i < cfg.Sites; i++ {
		reg := c.Registry(core.SiteID(i))
		ct := reg.Timer(site.TimerCoordTxn)
		pt := reg.Timer(site.TimerPartTxn)
		coordTotal += ct.Total
		coordN += ct.Count
		partTotal += pt.Total
		partN += pt.Count
	}
	if coordN == 0 || partN == 0 {
		return 0, 0, nil, fmt.Errorf("experiment 1: no timer observations")
	}
	return coordTotal / time.Duration(coordN), partTotal / time.Duration(partN), CollectPercentiles(c), nil
}

// ControlOverheadReport is the §2.2.2 table: control-transaction costs.
type ControlOverheadReport struct {
	Rounds int
	// Type1Recovering: type-1 completion at the recovering site (paper:
	// 190 ms; grows with the number of sites).
	Type1Recovering time.Duration
	// Type1Operational: type-1 completion at an operational site (paper:
	// 50 ms; independent of the number of sites).
	Type1Operational time.Duration
	// Type2: type-2 completion per announced-to site (paper: 68 ms).
	Type2 time.Duration
	// Type2Fanout: wall time of one whole type-2 announcement fan-out —
	// every target contacted in parallel under one shared ack deadline,
	// so it tracks the slowest target, not the sum.
	Type2Fanout time.Duration
	// Percentiles holds the run's latency histograms per event class.
	Percentiles *PercentileReport
}

// String renders the §2.2.2 table.
func (r ControlOverheadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment 1b: overhead for control transactions (%d failure/recovery rounds)\n", r.Rounds)
	fmt.Fprintf(&b, "  %-44s %12v  %s\n", "Type 1 at recovering site", r.Type1Recovering.Round(time.Microsecond), r.Percentiles.p95p99(site.TimerCtrl1Recovering))
	fmt.Fprintf(&b, "  %-44s %12v  %s\n", "Type 1 at operational site", r.Type1Operational.Round(time.Microsecond), r.Percentiles.p95p99(site.TimerCtrl1Operational))
	fmt.Fprintf(&b, "  %-44s %12v  %s\n", "Type 2 (per announced-to site)", r.Type2.Round(time.Microsecond), r.Percentiles.p95p99(site.TimerCtrl2))
	fmt.Fprintf(&b, "  %-44s %12v  %s\n", "Type 2 fan-out (all targets, wall)", r.Type2Fanout.Round(time.Microsecond), r.Percentiles.p95p99(site.TimerCtrl2Fanout))
	return b.String()
}

// RunOverheadControl reproduces §2.2.2 by cycling one site through
// failure, detection and recovery `rounds` times and averaging the control
// transaction timers.
func RunOverheadControl(cfg Config, rounds int) (*ControlOverheadReport, error) {
	cfg = cfg.withDefaults(exp1Sites, exp1Items, exp1MaxOps)
	c, err := cluster.New(cfg.Config)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	gen := workload.NewUniform(cfg.Items, cfg.MaxOps, cfg.Seed)

	victim := core.SiteID(0)
	detector := core.SiteID(1)
	for round := 0; round < rounds; round++ {
		if err := c.Fail(victim); err != nil {
			return nil, err
		}
		// A write transaction detects the failure and runs type 2.
		id := c.NextTxnID()
		if _, err := c.ExecTxn(detector, id, []core.Op{core.Write(core.ItemID(round%cfg.Items), workload.Payload(id, 0))}); err != nil {
			return nil, err
		}
		// A few transactions while the site is down, then recovery
		// (type 1).
		for i := 0; i < 3; i++ {
			id := c.NextTxnID()
			if _, err := c.ExecTxn(detector, id, gen.Next(id)); err != nil {
				return nil, err
			}
		}
		if _, err := c.Recover(victim); err != nil {
			return nil, err
		}
		// Clear the backlog of fail-locks so rounds stay uniform.
		for i := 0; i < cfg.Items; i++ {
			id := c.NextTxnID()
			if _, err := c.ExecTxn(victim, id, []core.Op{core.Read(core.ItemID(i))}); err != nil {
				return nil, err
			}
		}
	}

	report := &ControlOverheadReport{Rounds: rounds, Percentiles: CollectPercentiles(c)}
	report.Type1Recovering = c.Registry(victim).Timer(site.TimerCtrl1Recovering).Mean()
	var opTotal, t2Total, fanTotal time.Duration
	var opN, t2N, fanN uint64
	for i := 0; i < cfg.Sites; i++ {
		reg := c.Registry(core.SiteID(i))
		op := reg.Timer(site.TimerCtrl1Operational)
		opTotal += op.Total
		opN += op.Count
		t2 := reg.Timer(site.TimerCtrl2)
		t2Total += t2.Total
		t2N += t2.Count
		fan := reg.Timer(site.TimerCtrl2Fanout)
		fanTotal += fan.Total
		fanN += fan.Count
	}
	if opN > 0 {
		report.Type1Operational = opTotal / time.Duration(opN)
	}
	if t2N > 0 {
		report.Type2 = t2Total / time.Duration(t2N)
	}
	if fanN > 0 {
		report.Type2Fanout = fanTotal / time.Duration(fanN)
	}
	return report, nil
}

// CopierOverheadReport is the §2.2.3 table: copier transaction costs.
type CopierOverheadReport struct {
	Rounds int
	// TxnPlain is the mean database-transaction time without copiers.
	TxnPlain time.Duration
	// TxnWithCopier is the mean time for a database transaction that ran
	// one copier (paper: 270 ms, +45% over 186 ms).
	TxnWithCopier time.Duration
	// CopyServe is the donor-side service time (paper: 25 ms).
	CopyServe time.Duration
	// ClearFailLocks is the per-site cost of the special clearing
	// transaction (paper: 20 ms).
	ClearFailLocks time.Duration
	// ClearFanout is the wall time of one whole clear-fail-locks fan-out
	// (all ClearSites contacted in parallel under one shared deadline).
	ClearFanout time.Duration
	// ClearSites is the number of sites contacted by each special
	// transaction.
	ClearSites int
	// Percentiles holds the run's latency histograms per event class.
	Percentiles *PercentileReport
}

// IncreasePct is the copier-transaction cost increase (paper: 45%).
func (r CopierOverheadReport) IncreasePct() float64 {
	return pctIncrease(r.TxnPlain, r.TxnWithCopier)
}

// ClearSharePct estimates the share of the copier overhead attributable to
// the fail-lock-clearing special transaction (paper: ~30%): per-site clear
// cost times contacted sites, over the total overhead.
func (r CopierOverheadReport) ClearSharePct() float64 {
	over := r.TxnWithCopier - r.TxnPlain
	if over <= 0 {
		return 0
	}
	return 100 * float64(r.ClearFailLocks*time.Duration(r.ClearSites)) / float64(over)
}

// String renders the §2.2.3 table.
func (r CopierOverheadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment 1c: overhead for copier transactions (%d rounds)\n", r.Rounds)
	fmt.Fprintf(&b, "  %-44s %12v  %s\n", "Database txn without copier", r.TxnPlain.Round(time.Microsecond), r.Percentiles.p95p99(site.TimerCoordTxn))
	fmt.Fprintf(&b, "  %-44s %12v  (+%.0f%%)  %s\n", "Database txn with one copier", r.TxnWithCopier.Round(time.Microsecond), r.IncreasePct(), r.Percentiles.p95p99(site.TimerCoordTxnCopier))
	fmt.Fprintf(&b, "  %-44s %12v  %s\n", "Copy request service at donor", r.CopyServe.Round(time.Microsecond), r.Percentiles.p95p99(site.TimerCopyServe))
	fmt.Fprintf(&b, "  %-44s %12v  %s\n", "Clear-fail-locks special txn (per site)", r.ClearFailLocks.Round(time.Microsecond), r.Percentiles.p95p99(site.TimerClearFailLocks))
	fmt.Fprintf(&b, "  %-44s %12v  %s\n", "Clear-fail-locks fan-out (all sites, wall)", r.ClearFanout.Round(time.Microsecond), r.Percentiles.p95p99(site.TimerClearFanout))
	fmt.Fprintf(&b, "  %-44s %11.0f%%\n", "Share of copier overhead from clearing", r.ClearSharePct())
	return b.String()
}

// RunOverheadCopier reproduces §2.2.3: "a coordinating site received a
// database transaction which included a read operation for a fail-locked
// copy. A copier transaction was then run to get an up-to-date copy."
func RunOverheadCopier(cfg Config, rounds int) (*CopierOverheadReport, error) {
	cfg = cfg.withDefaults(exp1Sites, exp1Items, exp1MaxOps)
	c, err := cluster.New(cfg.Config)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	gen := workload.NewUniform(cfg.Items, cfg.MaxOps, cfg.Seed)

	victim := core.SiteID(0)
	other := core.SiteID(1)
	for round := 0; round < rounds; round++ {
		item := core.ItemID(round % cfg.Items)
		if err := c.Fail(victim); err != nil {
			return nil, err
		}
		// Detect, then write the item so it fail-locks for the victim.
		id := c.NextTxnID()
		if _, err := c.ExecTxn(other, id, []core.Op{core.Write(item, workload.Payload(id, item))}); err != nil {
			return nil, err
		}
		id = c.NextTxnID()
		if out, err := c.ExecTxn(other, id, []core.Op{core.Write(item, workload.Payload(id, item))}); err != nil || !out.Committed {
			return nil, fmt.Errorf("experiment 1c: setup write failed: %v %v", out, err)
		}
		if _, err := c.Recover(victim); err != nil {
			return nil, err
		}
		// The measured transaction: a read of the fail-locked item plus
		// a typical op mix, coordinated at the recovering site.
		ops := append([]core.Op{core.Read(item)}, gen.Next(core.TxnID(round+1))...)
		id = c.NextTxnID()
		out, err := c.ExecTxn(victim, id, ops)
		if err != nil {
			return nil, err
		}
		if !out.Committed || out.Copiers == 0 {
			return nil, fmt.Errorf("experiment 1c: copier txn failed: committed=%v copiers=%d reason=%s", out.Committed, out.Copiers, out.AbortReason)
		}
		// Baseline transactions with no copiers, same shape.
		id = c.NextTxnID()
		if _, err := c.ExecTxn(victim, id, gen.Next(id)); err != nil {
			return nil, err
		}
	}

	report := &CopierOverheadReport{Rounds: rounds, ClearSites: cfg.Sites - 1, Percentiles: CollectPercentiles(c)}
	var plainTotal, copierTotal time.Duration
	var plainN, copierN uint64
	var serveTotal, clearTotal, clearFanTotal time.Duration
	var serveN, clearN, clearFanN uint64
	for i := 0; i < cfg.Sites; i++ {
		reg := c.Registry(core.SiteID(i))
		p := reg.Timer(site.TimerCoordTxn)
		plainTotal += p.Total
		plainN += p.Count
		cp := reg.Timer(site.TimerCoordTxnCopier)
		copierTotal += cp.Total
		copierN += cp.Count
		sv := reg.Timer(site.TimerCopyServe)
		serveTotal += sv.Total
		serveN += sv.Count
		cl := reg.Timer(site.TimerClearFailLocks)
		clearTotal += cl.Total
		clearN += cl.Count
		cf := reg.Timer(site.TimerClearFanout)
		clearFanTotal += cf.Total
		clearFanN += cf.Count
	}
	if plainN > 0 {
		report.TxnPlain = plainTotal / time.Duration(plainN)
	}
	if copierN > 0 {
		report.TxnWithCopier = copierTotal / time.Duration(copierN)
	}
	if serveN > 0 {
		report.CopyServe = serveTotal / time.Duration(serveN)
	}
	if clearN > 0 {
		report.ClearFailLocks = clearTotal / time.Duration(clearN)
	}
	if clearFanN > 0 {
		report.ClearFanout = clearFanTotal / time.Duration(clearFanN)
	}
	return report, nil
}
