package experiment

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"minraid/internal/cluster"
	"minraid/internal/core"
	"minraid/internal/failure"
)

// Experiment tests assert the paper's qualitative shapes with small
// parameter scaling where the full runs would be slow. The figure-shape
// tests run at zero delay (delay-independent); the experiment-1 timing
// tests inject a small per-hop delay so message costs dominate scheduler
// noise — on a loaded machine a zero-delay microsecond-scale comparison
// is meaningless, as it was on the paper's hardware too.

// TestPickCoordinatorRoundRobin: a lone up site coordinates every
// transaction, and with both sites up transactions alternate between
// them ("transactions were processed on both sites", §3.1).
func TestPickCoordinatorRoundRobin(t *testing.T) {
	up := []bool{false, true}
	for txn := 1; txn <= 25; txn++ {
		if got := pickCoordinator(up, txn); got != 1 {
			t.Fatalf("txn %d coordinator = %v", txn, got)
		}
	}
	up[0] = true
	if c51, c52 := pickCoordinator(up, 51), pickCoordinator(up, 52); c51 == c52 {
		t.Errorf("coordinators do not alternate: %v %v", c51, c52)
	}
}

// TestRunScheduleRejectsTotalFailure: a script that takes the last site
// down leaves no coordinator; the run stops with an error naming the
// event.
func TestRunScheduleRejectsTotalFailure(t *testing.T) {
	sched := failure.Schedule{Txns: 5, Events: []failure.Event{
		{BeforeTxn: 1, Kind: failure.Fail, Site: 0},
		{BeforeTxn: 1, Kind: failure.Fail, Site: 1},
	}}
	_, err := RunSchedule(Config{}, sched, 0)
	if err == nil || !strings.Contains(err.Error(), "fail site 1 leaves no site up") {
		t.Fatalf("err = %v, want the total failure reported", err)
	}
}

func TestRunScheduleFigure1Shape(t *testing.T) {
	cfg := Config{Config: cluster.Config{Sites: 2, Items: 50}, MaxOps: 5, Seed: 7}
	res, err := RunSchedule(cfg, failure.Figure1(0), 2000)
	if err != nil {
		t.Fatal(err)
	}
	series := res.FailLocks[core.SiteID(0)]
	if len(series) < 100 {
		t.Fatalf("series too short: %d", len(series))
	}
	// Fail-locks rise while the site is down...
	peak := series[99]
	if peak < 0.9*50 {
		t.Errorf("peak fail-locked = %v, paper reports >90%% of 50", peak)
	}
	// ...are non-decreasing during the down window...
	for i := 1; i < 100; i++ {
		if series[i] < series[i-1] {
			t.Fatalf("fail-locks dropped during down window at txn %d", i+1)
		}
	}
	// ...and reach zero after recovery.
	if res.FullyRecoveredAt == 0 {
		t.Fatal("site never fully recovered")
	}
	if series[len(series)-1] != 0 {
		t.Errorf("final fail-lock count = %v", series[len(series)-1])
	}
	if !res.AuditOK {
		t.Errorf("audit failed: %s", res.AuditDetail)
	}
	if res.DataAborts != 0 {
		t.Errorf("figure 1 scenario should have no data aborts, got %d", res.DataAborts)
	}
}

func TestRunFigure1Analysis(t *testing.T) {
	rep, err := RunFigure1(Config{Seed: 7}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakPct() < 90 {
		t.Errorf("peak = %.0f%%, paper reports >90%%", rep.PeakPct())
	}
	if rep.RecoveryTxns == 0 {
		t.Error("no recovery span measured")
	}
	// The paper's convexity observation: the first ten locks clear much
	// faster than the last ten (6 vs 106 txns).
	if rep.First10Txns == 0 || rep.Last10Txns == 0 {
		t.Fatalf("decay analysis empty: first=%d last=%d", rep.First10Txns, rep.Last10Txns)
	}
	if rep.Last10Txns <= rep.First10Txns {
		t.Errorf("decay not convex: first 10 in %d txns, last 10 in %d", rep.First10Txns, rep.Last10Txns)
	}
	out := rep.String()
	for _, want := range []string{"Figure 1", "peak fail-locked", "first 10 fail-locks"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunFigure2ScenarioOne(t *testing.T) {
	rep, err := RunFigure2(Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Res
	if res.Txns != 120 {
		t.Errorf("txns = %d, want 120", res.Txns)
	}
	// The defining feature: aborts for data unavailability while site 1
	// (the only donor) is down during site 0's recovery.
	if res.DataAborts == 0 {
		t.Error("scenario 1 produced no data-unavailability aborts; paper reports 13")
	}
	if !res.AuditOK {
		t.Errorf("audit failed: %s", res.AuditDetail)
	}
	// Both sites' curves rise and fall.
	for sid := core.SiteID(0); sid <= 1; sid++ {
		max := 0.0
		for _, v := range res.FailLocks[sid] {
			if v > max {
				max = v
			}
		}
		if max == 0 {
			t.Errorf("site %d never fail-locked", sid)
		}
	}
	if !strings.Contains(rep.String(), "scenario 1") {
		t.Error("report title wrong")
	}
}

func TestRunFigure3ScenarioTwo(t *testing.T) {
	rep, err := RunFigure3(Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Res
	if res.Txns != 160 {
		t.Errorf("txns = %d, want 160", res.Txns)
	}
	// The paper's claim: no aborts due to data unavailability.
	if res.DataAborts != 0 {
		t.Errorf("scenario 2 produced %d data aborts; paper reports none", res.DataAborts)
	}
	if !res.AuditOK {
		t.Errorf("audit failed: %s", res.AuditDetail)
	}
	// Each site's curve peaks during its own down window.
	for sid := 0; sid < 4; sid++ {
		max := 0.0
		for _, v := range res.FailLocks[core.SiteID(sid)] {
			if v > max {
				max = v
			}
		}
		if max == 0 {
			t.Errorf("site %d never fail-locked", sid)
		}
	}
}

func TestOverheadFailLocks(t *testing.T) {
	rep, err := RunOverheadFailLocks(Config{Config: cluster.Config{Delay: time.Millisecond}, Seed: 3}, 20, 60)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CoordWith == 0 || rep.CoordWithout == 0 || rep.PartWith == 0 || rep.PartWithout == 0 {
		t.Fatalf("empty measurements: %+v", rep)
	}
	// Fail-lock maintenance is cheap: the paper saw +5.7%/+7.8%. With
	// zero network delay the relative overhead can be larger but must
	// stay small in absolute terms; sanity-bound it loosely.
	if rep.CoordWith < rep.CoordWithout/2 {
		t.Errorf("with-fail-locks coordinator time implausibly low: %+v", rep)
	}
	out := rep.String()
	if !strings.Contains(out, "Coordinating site") || !strings.Contains(out, "Participating site") {
		t.Errorf("report:\n%s", out)
	}
}

func TestOverheadControl(t *testing.T) {
	rep, err := RunOverheadControl(Config{Config: cluster.Config{Delay: time.Millisecond}, Seed: 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Type1Recovering == 0 || rep.Type1Operational == 0 || rep.Type2 == 0 {
		t.Fatalf("empty control timings: %+v", rep)
	}
	// Type 1 at the recovering site spans one announcement per site and
	// must cost at least as much as the single-hop handler at an
	// operational site.
	if rep.Type1Recovering < rep.Type1Operational {
		t.Errorf("type1 recovering (%v) < type1 operational (%v)", rep.Type1Recovering, rep.Type1Operational)
	}
}

func TestOverheadCopier(t *testing.T) {
	rep, err := RunOverheadCopier(Config{Config: cluster.Config{Delay: time.Millisecond}, Seed: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TxnPlain == 0 || rep.TxnWithCopier == 0 {
		t.Fatalf("empty copier timings: %+v", rep)
	}
	// The paper's central observation: a transaction that runs a copier
	// is significantly more expensive (45% there).
	if rep.TxnWithCopier <= rep.TxnPlain {
		t.Errorf("copier txn (%v) not more expensive than plain (%v)", rep.TxnWithCopier, rep.TxnPlain)
	}
	if rep.CopyServe == 0 || rep.ClearFailLocks == 0 {
		t.Errorf("donor/clear timings missing: %+v", rep)
	}
	if rep.ClearSharePct() <= 0 {
		t.Errorf("clear share = %v", rep.ClearSharePct())
	}
}

func TestTwoStepRecoveryShortens(t *testing.T) {
	rep, err := RunTwoStepRecovery(Config{Seed: 11}, 0.9, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TwoStep >= rep.Baseline {
		t.Errorf("two-step (%d txns) did not beat baseline (%d txns)", rep.TwoStep, rep.Baseline)
	}
	if rep.TwoStepBatchCopiers == 0 {
		t.Error("batch mode issued no batch copiers")
	}
}

// TestTwoStepBatchFiresAtThreshold pins step two of two-step recovery to
// the transaction sequence. Up to the batch the two-step run is the
// baseline run, transaction for transaction; the batch runs after the
// first transaction that leaves the recovered site at or below the
// threshold — never while it is above — and heals its whole stale set.
func TestTwoStepBatchFiresAtThreshold(t *testing.T) {
	cfg := Config{Config: cluster.Config{Sites: 2, Items: 50}, MaxOps: 5, Seed: 7}
	for _, bad := range []float64{-0.1, 1.1} {
		two := cfg
		two.TwoStepThreshold = bad
		if _, err := RunSchedule(two, failure.Figure1(0), 2000); err == nil || !strings.Contains(err.Error(), "two-step threshold") {
			t.Errorf("threshold %v: err = %v, want a range error", bad, err)
		}
	}
	base, err := RunSchedule(cfg, failure.Figure1(0), 2000)
	if err != nil {
		t.Fatal(err)
	}
	baseLocks := base.FailLocks[0]
	for _, threshold := range []float64{1.0, 0.5} {
		t.Run(fmt.Sprintf("threshold=%.1f", threshold), func(t *testing.T) {
			two := cfg
			two.TwoStepThreshold = threshold
			res, err := RunSchedule(two, failure.Figure1(0), 2000)
			if err != nil {
				t.Fatal(err)
			}
			// Index 100 is transaction 101, the first after site 0 recovers.
			fire := 100
			for fire < len(baseLocks) && baseLocks[fire]/float64(cfg.Items) > threshold {
				fire++
			}
			if fire == len(baseLocks) {
				t.Fatal("the baseline never reached the threshold")
			}
			locks := res.FailLocks[0]
			if len(locks) <= fire {
				t.Fatalf("run ended after %d txns, before the batch at txn %d", len(locks), fire+1)
			}
			for i := 0; i < fire; i++ {
				if locks[i] != baseLocks[i] {
					t.Fatalf("txn %d: %v locked, baseline %v: the batch fired above the threshold", i+1, locks[i], baseLocks[i])
				}
			}
			if locks[fire] != 0 || res.FullyRecoveredAt != fire+1 {
				t.Errorf("txn %d: %v locked, fully recovered at %d: the batch did not heal the stale set at the threshold",
					fire+1, locks[fire], res.FullyRecoveredAt)
			}
			if res.BatchCopiers == 0 {
				t.Error("the batch ran no copier")
			}
			if !res.AuditOK {
				t.Error(res.AuditDetail)
			}
		})
	}
}

// TestPaperTablesDeterministic: the paper's tables are functions of the
// configuration — the same run prints the same table, every time. Three
// runs each, so a table that depends on goroutine scheduling rarely slips
// through.
func TestPaperTablesDeterministic(t *testing.T) {
	for _, table := range []struct {
		name string
		run  func() (fmt.Stringer, error)
	}{
		{"figure1", func() (fmt.Stringer, error) { return RunFigure1(Config{}, 2000) }},
		{"figure2", func() (fmt.Stringer, error) { return RunFigure2(Config{}) }},
		{"figure3", func() (fmt.Stringer, error) { return RunFigure3(Config{}) }},
		{"two-step", func() (fmt.Stringer, error) { return RunTwoStepRecovery(Config{}, 0.5, 2000) }},
	} {
		var out [3]string
		for i := range out {
			rep, err := table.run()
			if err != nil {
				t.Fatalf("%s: %v", table.name, err)
			}
			out[i] = rep.String()
			if out[i] != out[0] {
				t.Errorf("%s differs between runs 1 and %d:\n%s\n%s", table.name, i+1, out[0], out[i])
			}
		}
	}
}

func TestReadFractionSweep(t *testing.T) {
	rep, err := RunReadFractionSweep(Config{Seed: 5}, []float64{0.3, 0.8}, 6000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	lo, hi := rep.Rows[0], rep.Rows[1]
	// §5: with more reads, fewer write-driven clears, so recovery relies
	// more on copiers and/or takes longer.
	if hi.Copiers < lo.Copiers && hi.RecoveryTxns < lo.RecoveryTxns {
		t.Errorf("read-heavy run was strictly easier: %+v vs %+v", lo, hi)
	}
}

func TestPolicyComparison(t *testing.T) {
	rep, err := RunPolicyComparison(Config{Config: cluster.Config{AckTimeout: 20 * time.Millisecond}, Seed: 9}, 60)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PolicyRow{}
	for _, row := range rep.Rows {
		byName[row.Policy] = row
	}
	rowaa, rowa, quorum := byName["rowaa"], byName["rowa"], byName["quorum"]
	if rowaa.Committed != rep.Txns {
		t.Errorf("ROWAA committed %d/%d with one site down", rowaa.Committed, rep.Txns)
	}
	if quorum.Committed != rep.Txns {
		t.Errorf("quorum committed %d/%d with a majority up", quorum.Committed, rep.Txns)
	}
	if rowa.WriteAborts == 0 {
		t.Error("ROWA aborted no writes with a site down — baseline broken")
	}
	if rowa.ReadAborts != 0 {
		t.Errorf("ROWA aborted %d read-only txns", rowa.ReadAborts)
	}
	if rowa.Committed >= rowaa.Committed {
		t.Error("ROWA availability should be strictly worse than ROWAA")
	}
}

func TestType3Study(t *testing.T) {
	rep, err := RunType3Study(Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EndangeredBefore == 0 {
		t.Fatal("setup produced no endangered items")
	}
	if rep.WithoutType3Remaining != rep.EndangeredBefore {
		t.Errorf("without type 3, endangered items changed: %d -> %d", rep.EndangeredBefore, rep.WithoutType3Remaining)
	}
	if rep.WithType3Remaining != 0 {
		t.Errorf("type 3 left %d items endangered", rep.WithType3Remaining)
	}
	if rep.Type3Txns == 0 {
		t.Error("no type-3 transactions recorded")
	}
}

func TestPartitionStudy(t *testing.T) {
	rep, err := RunPartitionStudy(Config{Config: cluster.Config{AckTimeout: 20 * time.Millisecond}, Seed: 21}, 6)
	if err != nil {
		t.Fatal(err)
	}
	// ROWAA: both sides commit after detecting "failure" of the other —
	// split brain — and the audit must catch the divergence.
	if rep.ROWAAMinorityCommits == 0 || rep.ROWAAMajorityCommits == 0 {
		t.Errorf("ROWAA sides did not both make progress: %d / %d",
			rep.ROWAAMinorityCommits, rep.ROWAAMajorityCommits)
	}
	if !rep.ROWAADiverged {
		t.Error("audit missed the ROWAA split-brain divergence")
	}
	// Quorum: the minority is blocked, the majority proceeds, and after
	// healing version voting serves the fresh value.
	if rep.QuorumMinorityCommits != 0 {
		t.Errorf("quorum minority committed %d writes", rep.QuorumMinorityCommits)
	}
	if rep.QuorumMajorityCommits != rep.Txns {
		t.Errorf("quorum majority committed %d/%d", rep.QuorumMajorityCommits, rep.Txns)
	}
	if !rep.QuorumHealedReadFresh {
		t.Error("healed quorum read did not surface the majority value")
	}
	if !strings.Contains(rep.String(), "DIVERGED") {
		t.Error("report text missing divergence note")
	}
}

func TestMessageComplexity(t *testing.T) {
	rep, err := RunMessageComplexity(Config{Seed: 17}, []int{2, 4}, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range rep.Order {
		row := rep.Rows[name]
		if len(row) != 2 {
			t.Fatalf("%s row = %v", name, row)
		}
		// More sites, more messages — every policy writes to more
		// copies.
		if row[1] <= row[0] {
			t.Errorf("%s: messages did not grow with sites: %v", name, row)
		}
	}
	// Quorum pays a read round trip ROWAA does not.
	if rep.Rows["quorum"][1] <= rep.Rows["rowaa"][1] {
		t.Errorf("quorum (%v) not costlier than ROWAA (%v) at 4 sites",
			rep.Rows["quorum"][1], rep.Rows["rowaa"][1])
	}
}

func TestReplicationDegree(t *testing.T) {
	rep, err := RunReplicationDegree(Config{Config: cluster.Config{AckTimeout: 20 * time.Millisecond}, Seed: 23}, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// Degree 1: items hosted solely on the dead site are unreachable.
	if rep.Rows[0].UnavailableAborts == 0 {
		t.Error("degree 1 with a dead site produced no unavailable aborts")
	}
	// Full replication: every transaction commits.
	last := rep.Rows[len(rep.Rows)-1]
	if last.Degree != 4 || last.CommittedPct != 100 {
		t.Errorf("full replication row: %+v", last)
	}
	// Availability is monotone in degree.
	for i := 1; i < len(rep.Rows); i++ {
		if rep.Rows[i].CommittedPct < rep.Rows[i-1].CommittedPct {
			t.Errorf("availability not monotone: %+v", rep.Rows)
		}
	}
}

func TestReportStrings(t *testing.T) {
	// Every report renders non-empty, labelled text; these are the
	// artefacts EXPERIMENTS.md captures.
	cases := map[string]interface{ String() string }{
		"control": ControlOverheadReport{Rounds: 3, Type1Recovering: time.Millisecond, Type1Operational: time.Microsecond, Type2: time.Millisecond},
		"copier": CopierOverheadReport{Rounds: 3, TxnPlain: time.Millisecond, TxnWithCopier: 2 * time.Millisecond,
			CopyServe: time.Microsecond, ClearFailLocks: time.Microsecond, ClearSites: 3},
		"twostep":   TwoStepRecoveryReport{Threshold: 0.5, Baseline: 100, TwoStep: 10},
		"readfrac":  ReadFractionReport{Rows: []ReadFractionRow{{ReadFraction: 0.5, PeakLocked: 45, RecoveryTxns: 100, Copiers: 10}}},
		"policies":  PolicyComparisonReport{Txns: 10, Rows: []PolicyRow{{Policy: "rowaa", Committed: 10}}},
		"type3":     Type3Report{EndangeredBefore: 5, Type3Txns: 1},
		"partition": PartitionReport{Txns: 5, ROWAADiverged: true, QuorumHealedReadFresh: true},
		"messages": MessageComplexityReport{TxnsPerCell: 10, SiteCounts: []int{2, 4},
			Rows: map[string][]float64{"rowaa": {5, 10}}, Order: []string{"rowaa"}},
		"degree": ReplicationDegreeReport{Sites: 4, Txns: 10, Rows: []ReplicationDegreeRow{{Degree: 2, CommittedPct: 100}}},
	}
	for name, rep := range cases {
		out := rep.String()
		if len(out) < 20 || !strings.Contains(out, "\n") {
			t.Errorf("%s report renders %q", name, out)
		}
	}
	// Derived percentages.
	cop := cases["copier"].(CopierOverheadReport)
	if cop.IncreasePct() != 100 {
		t.Errorf("IncreasePct = %v", cop.IncreasePct())
	}
	if cop.ClearSharePct() <= 0 {
		t.Errorf("ClearSharePct = %v", cop.ClearSharePct())
	}
}
