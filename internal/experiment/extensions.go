package experiment

import (
	"fmt"
	"strings"
	"time"

	"minraid/internal/cluster"
	"minraid/internal/core"
	"minraid/internal/failure"
	"minraid/internal/policy"
	"minraid/internal/txn"
	"minraid/internal/workload"
)

// TwoStepRecoveryReport compares the paper's baseline demand-driven
// recovery against its proposed two-step recovery (§3.2): "in the second
// step the recovering site begins to issue copier transactions in a
// 'batch' mode ... this causes the out-of-date copies to be refreshed and
// hastens the completion of recovery."
type TwoStepRecoveryReport struct {
	Threshold float64
	// Baseline and TwoStep are the transactions-to-full-recovery counts.
	Baseline, TwoStep int
	// BaselineCopiers / TwoStepCopiers count demand copiers.
	BaselineCopiers, TwoStepCopiers int
	// TwoStepBatchCopiers counts the batch copiers step two issued
	// (grouped: one copier can refresh many items from one donor).
	TwoStepBatchCopiers int
	// Percentiles merges both arms' latency histograms.
	Percentiles *PercentileReport
}

// String renders the comparison.
func (r TwoStepRecoveryReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: two-step recovery (batch threshold %.0f%%)\n", r.Threshold*100)
	fmt.Fprintf(&b, "  %-36s %8s %8s\n", "", "baseline", "two-step")
	fmt.Fprintf(&b, "  %-36s %8d %8d\n", "txns from site-up to full recovery", r.Baseline, r.TwoStep)
	fmt.Fprintf(&b, "  %-36s %8d %8d\n", "demand copier transactions", r.BaselineCopiers, r.TwoStepCopiers)
	fmt.Fprintf(&b, "  %-36s %8d %8d\n", "batch copier transactions", 0, r.TwoStepBatchCopiers)
	return b.String()
}

// RunTwoStepRecovery runs the Figure-1 scenario twice — once demand-driven
// and once with the batch threshold — and compares recovery length.
func RunTwoStepRecovery(cfg Config, threshold float64, capTxns int) (*TwoStepRecoveryReport, error) {
	cfg = cfg.withDefaults(2, 50, 5)
	if capTxns == 0 {
		capTxns = 2000
	}
	if threshold == 0 {
		threshold = 0.5
	}
	report := &TwoStepRecoveryReport{Threshold: threshold}

	base := cfg
	base.TwoStepThreshold = 0
	baseRes, err := RunSchedule(base, failure.Figure1(0), capTxns)
	if err != nil {
		return nil, err
	}
	report.Baseline = recoverySpan(baseRes)
	report.BaselineCopiers = baseRes.Copiers

	two := cfg
	two.TwoStepThreshold = threshold
	twoRes, err := RunSchedule(two, failure.Figure1(0), capTxns)
	if err != nil {
		return nil, err
	}
	report.TwoStep = recoverySpan(twoRes)
	report.TwoStepCopiers = twoRes.Copiers
	report.TwoStepBatchCopiers = twoRes.BatchCopiers
	report.Percentiles = baseRes.Percentiles
	report.Percentiles.Merge(twoRes.Percentiles)
	return report, nil
}

func recoverySpan(res *ScheduleResult) int {
	if res.FullyRecoveredAt > 100 {
		return res.FullyRecoveredAt - 100
	}
	return res.Txns - 100 // never fully recovered within the cap
}

// ReadFractionReport sweeps the workload's read fraction over the
// Figure-1 scenario — §5's discussion: "if reads occur more commonly than
// writes then more copier transactions would probably be requested by a
// recovering site during recovery."
type ReadFractionReport struct {
	Rows []ReadFractionRow
}

// ReadFractionRow is one sweep point, averaged over several seeds.
type ReadFractionRow struct {
	ReadFraction float64
	PeakLocked   float64
	RecoveryTxns float64
	Copiers      float64
}

// String renders the sweep table.
func (r ReadFractionReport) String() string {
	var b strings.Builder
	b.WriteString("Extension: read-fraction sweep over the Figure-1 scenario (mean over seeds)\n")
	fmt.Fprintf(&b, "  %12s %12s %14s %10s\n", "read frac", "peak locked", "recovery txns", "copiers")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %11.0f%% %12.1f %14.1f %10.1f\n",
			row.ReadFraction*100, row.PeakLocked, row.RecoveryTxns, row.Copiers)
	}
	return b.String()
}

// RunReadFractionSweep runs the Figure-1 scenario at several read
// fractions, averaging each point over a handful of seeds (a single seed
// would be noise-dominated: the item-visit sequence, and hence the
// coupon-collector tail of recovery, is identical across fractions for one
// seed).
func RunReadFractionSweep(cfg Config, fractions []float64, capTxns int) (*ReadFractionReport, error) {
	cfg = cfg.withDefaults(2, 50, 5)
	if len(fractions) == 0 {
		fractions = []float64{0.3, 0.5, 0.7, 0.9}
	}
	if capTxns == 0 {
		capTxns = 4000
	}
	const seeds = 5
	report := &ReadFractionReport{}
	for _, f := range fractions {
		row := ReadFractionRow{ReadFraction: f}
		for s := 0; s < seeds; s++ {
			c := cfg
			c.ReadFraction = f
			c.Seed = cfg.Seed + int64(s)*7919
			res, err := RunSchedule(c, failure.Figure1(0), capTxns)
			if err != nil {
				return nil, err
			}
			if len(res.FailLocks[0]) >= 100 {
				row.PeakLocked += res.FailLocks[0][99]
			}
			row.RecoveryTxns += float64(recoverySpan(res))
			row.Copiers += float64(res.Copiers)
		}
		row.PeakLocked /= seeds
		row.RecoveryTxns /= seeds
		row.Copiers /= seeds
		report.Rows = append(report.Rows, row)
	}
	return report, nil
}

// PolicyComparisonReport contrasts ROWAA against the ROWA and quorum
// baselines under a single site failure — the availability argument of
// §1.1 and §5 made quantitative.
type PolicyComparisonReport struct {
	Txns int
	Rows []PolicyRow
}

// PolicyRow is one protocol's outcome.
type PolicyRow struct {
	Policy      string
	Committed   int
	WriteAborts int // aborts of transactions containing writes
	ReadAborts  int // aborts of read-only transactions
}

// String renders the comparison table.
func (r PolicyComparisonReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: protocol availability with one of four sites down (%d txns each)\n", r.Txns)
	fmt.Fprintf(&b, "  %-8s %10s %13s %12s\n", "policy", "committed", "write aborts", "read aborts")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-8s %10d %13d %12d\n", row.Policy, row.Committed, row.WriteAborts, row.ReadAborts)
	}
	return b.String()
}

// RunPolicyComparison runs the same workload under ROWAA, ROWA and quorum
// with one site failed, counting committed transactions.
func RunPolicyComparison(cfg Config, txns int) (*PolicyComparisonReport, error) {
	cfg = cfg.withDefaults(4, 50, 5)
	if txns == 0 {
		txns = 100
	}
	report := &PolicyComparisonReport{Txns: txns}

	for _, pol := range []policy.Policy{policy.ROWAA{}, policy.ROWA{}, policy.Quorum{}} {
		ccfg := cfg.Config
		ccfg.Policy = pol
		c, err := cluster.New(ccfg)
		if err != nil {
			return nil, err
		}
		gen := workload.NewUniform(cfg.Items, cfg.MaxOps, cfg.Seed)
		row := PolicyRow{Policy: pol.Name()}

		if err := c.Fail(core.SiteID(cfg.Sites - 1)); err != nil {
			c.Close()
			return nil, err
		}
		// One detection write so ROWAA's vector converges before the
		// measured window (ROWA and quorum behave the same either way).
		id := c.NextTxnID()
		if _, err := c.ExecTxn(0, id, []core.Op{core.Write(0, workload.Payload(id, 0))}); err != nil {
			c.Close()
			return nil, err
		}

		for i := 0; i < txns; i++ {
			id := c.NextTxnID()
			ops := gen.Next(id)
			coord := core.SiteID(i % (cfg.Sites - 1)) // an up site
			out, err := c.ExecTxn(coord, id, ops)
			if err != nil {
				c.Close()
				return nil, err
			}
			switch {
			case out.Committed:
				row.Committed++
			case txn.Txn{ID: id, Ops: ops}.IsReadOnly():
				row.ReadAborts++
			default:
				row.WriteAborts++
			}
		}
		c.Close()
		report.Rows = append(report.Rows, row)
	}
	return report, nil
}

// Type3Report shows the effect of the proposed type-3 control transaction
// (§3.2): after a second failure leaves single up-to-date copies, type 3
// re-replicates them onto a backup site.
type Type3Report struct {
	// EndangeredBefore is the number of items with exactly one
	// up-to-date copy among operational sites when the second failure is
	// detected.
	EndangeredBefore int
	// WithType3Remaining / WithoutType3Remaining: endangered items still
	// unbacked after the protocol settles.
	WithType3Remaining    int
	WithoutType3Remaining int
	// Type3Txns is the number of type-3 control transactions run.
	Type3Txns int
}

// String renders the study.
func (r Type3Report) String() string {
	var b strings.Builder
	b.WriteString("Extension: type-3 control transactions (backup of last up-to-date copies)\n")
	fmt.Fprintf(&b, "  %-52s %6d\n", "items endangered after second failure", r.EndangeredBefore)
	fmt.Fprintf(&b, "  %-52s %6d\n", "still endangered without type 3", r.WithoutType3Remaining)
	fmt.Fprintf(&b, "  %-52s %6d\n", "still endangered with type 3", r.WithType3Remaining)
	fmt.Fprintf(&b, "  %-52s %6d\n", "type-3 control transactions run", r.Type3Txns)
	return b.String()
}

// RunType3Study builds the endangered-copy situation twice — with and
// without type-3 enabled — and compares how many items remain with a
// single up-to-date copy.
func RunType3Study(cfg Config) (*Type3Report, error) {
	cfg = cfg.withDefaults(3, 20, 5)
	report := &Type3Report{}

	for _, enable := range []bool{false, true} {
		ccfg := cfg.Config
		ccfg.EnableType3 = enable
		c, err := cluster.New(ccfg)
		if err != nil {
			return nil, err
		}

		// Fail site 1, write half the database, recover site 1 (items
		// now fail-locked for it), then fail site 2 and detect.
		if err := c.Fail(1); err != nil {
			c.Close()
			return nil, err
		}
		id := c.NextTxnID()
		c.ExecTxn(0, id, []core.Op{core.Write(0, workload.Payload(id, 0))}) // detection
		endangered := cfg.Items / 2
		for i := 0; i < endangered; i++ {
			id := c.NextTxnID()
			out, err := c.ExecTxn(0, id, []core.Op{core.Write(core.ItemID(i), workload.Payload(id, core.ItemID(i)))})
			if err != nil || !out.Committed {
				c.Close()
				return nil, fmt.Errorf("type-3 setup write %d failed: %v %v", i, out, err)
			}
		}
		if _, err := c.Recover(1); err != nil {
			c.Close()
			return nil, err
		}
		if err := c.Fail(2); err != nil {
			c.Close()
			return nil, err
		}
		id = c.NextTxnID()
		c.ExecTxn(0, id, []core.Op{core.Write(core.ItemID(cfg.Items-1), workload.Payload(id, 0))}) // detection -> type 2 -> (maybe) type 3

		// Let asynchronous type-3 work settle.
		remaining := -1
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			n, err := c.FailLockCount(0, 1)
			if err != nil {
				c.Close()
				return nil, err
			}
			if n == remaining {
				break
			}
			remaining = n
			time.Sleep(50 * time.Millisecond)
		}
		if enable {
			report.WithType3Remaining = remaining
			st, _ := c.Status(0, false)
			report.Type3Txns = int(st.Stats.ControlType3)
		} else {
			report.WithoutType3Remaining = remaining
			report.EndangeredBefore = remaining
		}
		c.Close()
	}
	return report, nil
}
