// Command raid-experiments regenerates every table and figure of the
// paper's evaluation:
//
//	raid-experiments                  # run everything, zero injected latency
//	raid-experiments -delay 9ms      # reproduce the paper's absolute scale
//	raid-experiments -run f1         # just Figure 1
//	raid-experiments -csv out/       # also write figure series as CSV
//	raid-experiments soak            # seeded chaos soak (see -h for knobs)
//
// Experiments: e1 (overhead tables §2.2), f1 (Figure 1 §3), f2/f3
// (Figures 2-3 §4), ext (the paper's proposed extensions: two-step
// recovery, type-3, read-fraction sweep, policy comparison). The soak
// subcommand runs randomized fail/recover schedules under a seeded chaotic
// network and audits copy consistency after every epoch.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"minraid/internal/cluster"
	"minraid/internal/core"
	"minraid/internal/experiment"
	"minraid/internal/plot"
)

// parseArgs parses args into fs unless they name the soak subcommand, which
// owns its own flag set. A positional argument is an error: flag parsing
// stops at it, and `raid-experiments bnch` would run every experiment.
func parseArgs(fs *flag.FlagSet, args []string) (soak bool, err error) {
	if len(args) > 0 && args[0] == "soak" {
		return true, nil
	}
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() > 0 {
		return false, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return false, nil
}

func main() {
	var (
		run   = flag.String("run", "all", "which experiment: all, e1, f1, f2, f3, ext")
		delay = flag.Duration("delay", 0, "per-hop communication cost (9ms reproduces the paper's hardware)")
		seed  = flag.Int64("seed", 1987, "workload RNG seed")
		csv   = flag.String("csv", "", "directory to write figure CSVs into")
		pct   = flag.Bool("percentiles", false, "also print p50/p95/p99 latency tables per event class")
	)
	soak, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "raid-experiments: %v\nusage: raid-experiments [flags] | raid-experiments soak [flags]   (-h lists the flags)\n", err)
		os.Exit(2)
	}
	if soak {
		runSoak(os.Args[2:])
		return
	}

	cfg := experiment.Config{Config: cluster.Config{Delay: *delay}, Seed: *seed}
	want := func(name string) bool { return *run == "all" || *run == name }
	ran := false

	if want("e1") {
		ran = true
		runE1(cfg, *pct)
	}
	if want("f1") {
		ran = true
		runF1(cfg, *csv, *pct)
	}
	if want("f2") {
		ran = true
		runScenario(cfg, *csv, "f2", *pct)
	}
	if want("f3") {
		ran = true
		runScenario(cfg, *csv, "f3", *pct)
	}
	if want("ext") {
		ran = true
		runExtensions(cfg, *pct)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want all, e1, f1, f2, f3, ext)\n", *run)
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "raid-experiments:", err)
	os.Exit(1)
}

func header(title string) {
	fmt.Println()
	fmt.Println(strings.Repeat("=", len(title)))
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
}

// percentiles prints the tail-latency table when -percentiles is set.
func percentiles(show bool, pr *experiment.PercentileReport) {
	if !show || pr == nil {
		return
	}
	fmt.Println()
	fmt.Print(pr)
}

func runE1(cfg experiment.Config, pct bool) {
	header("Experiment 1: overhead measurements (§2.2)")
	fmt.Printf("parameters: 50 items, 4 sites, max txn size 10, delay %v\n\n", cfg.Delay)

	fl, err := experiment.RunOverheadFailLocks(cfg, 50, 200)
	if err != nil {
		fail(err)
	}
	fmt.Println(fl)
	fmt.Println("paper: coordinator 176 -> 186 ms (+5.7%), participant 90 -> 97 ms (+7.8%)")
	percentiles(pct, fl.Percentiles)
	fmt.Println()

	ctrl, err := experiment.RunOverheadControl(cfg, 10)
	if err != nil {
		fail(err)
	}
	fmt.Println(ctrl)
	fmt.Println("paper: type 1 recovering 190 ms, type 1 operational 50 ms, type 2 68 ms")
	percentiles(pct, ctrl.Percentiles)
	fmt.Println()

	cop, err := experiment.RunOverheadCopier(cfg, 10)
	if err != nil {
		fail(err)
	}
	fmt.Println(cop)
	fmt.Println("paper: 270 ms vs 186 ms (+45%); copy-serve 25 ms; clear 20 ms; ~30% of overhead from clearing")
	percentiles(pct, cop.Percentiles)
}

func runF1(cfg experiment.Config, csvDir string, pct bool) {
	header("Experiment 2: data availability on a recovering site (§3, Figure 1)")
	rep, err := experiment.RunFigure1(cfg, 2000)
	if err != nil {
		fail(err)
	}
	fmt.Println(rep)
	fmt.Println("paper: >90% fail-locked after 100 txns; 160 txns to full recovery;")
	fmt.Println("       first 10 locks cleared in 6 txns, last 10 in 106; 2 copiers requested")
	percentiles(pct, rep.Res.Percentiles)
	writeCSV(csvDir, "figure1.csv", []plot.Series{
		{Name: "fail-locks site 0", Y: rep.Res.FailLocks[0]},
	})
}

func runScenario(cfg experiment.Config, csvDir, which string, pct bool) {
	var (
		rep *experiment.ScenarioReport
		err error
	)
	if which == "f2" {
		header("Experiment 3 scenario 1: alternating failures (§4.2.1, Figure 2)")
		rep, err = experiment.RunFigure2(cfg)
	} else {
		header("Experiment 3 scenario 2: rolling failures (§4.2.2, Figure 3)")
		rep, err = experiment.RunFigure3(cfg)
	}
	if err != nil {
		fail(err)
	}
	fmt.Println(rep)
	if which == "f2" {
		fmt.Println("paper: 13 transactions aborted for data unavailability")
	} else {
		fmt.Println("paper: no aborted transactions due to data being unavailable")
	}
	percentiles(pct, rep.Res.Percentiles)
	var series []plot.Series
	for i := 0; i < rep.Cfg.Sites; i++ {
		series = append(series, plot.Series{
			Name: fmt.Sprintf("site %d", i),
			Y:    rep.Res.FailLocks[core.SiteID(i)],
		})
	}
	writeCSV(csvDir, which+".csv", series)
}

func runExtensions(cfg experiment.Config, pct bool) {
	header("Extensions proposed by the paper (§3.2, §5)")

	two, err := experiment.RunTwoStepRecovery(cfg, 0.5, 2000)
	if err != nil {
		fail(err)
	}
	fmt.Println(two)
	percentiles(pct, two.Percentiles)

	rf, err := experiment.RunReadFractionSweep(cfg, nil, 6000)
	if err != nil {
		fail(err)
	}
	fmt.Println(rf)

	t3, err := experiment.RunType3Study(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Println(t3)

	pc, err := experiment.RunPolicyComparison(cfg, 100)
	if err != nil {
		fail(err)
	}
	fmt.Println(pc)

	part, err := experiment.RunPartitionStudy(cfg, 10)
	if err != nil {
		fail(err)
	}
	fmt.Println(part)

	mc, err := experiment.RunMessageComplexity(cfg, nil, 100)
	if err != nil {
		fail(err)
	}
	fmt.Println(mc)

	rd, err := experiment.RunReplicationDegree(cfg, 150)
	if err != nil {
		fail(err)
	}
	fmt.Println(rd)
}

func writeCSV(dir, name string, series []plot.Series) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	if err := plot.CSV(f, "txn", series); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", path)
}
