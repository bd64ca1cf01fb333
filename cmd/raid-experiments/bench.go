package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"minraid/internal/experiment"
)

// runBench drives the soak throughput bench subcommand:
//
//	raid-experiments bench                       # 200 txns, serial vs concurrent(8)
//	raid-experiments bench -txns 400 -conc 16
//	raid-experiments bench -rate 500             # paced open-loop latency view
//	raid-experiments bench -o BENCH_soak.json
//	raid-experiments bench -baseline BENCH_baseline.json -min-ratio 0.3
//	raid-experiments bench -wan wan3             # geo: rowaa vs epoch commit
//	raid-experiments bench -wan wan3 -commit epoch
//
// It runs the same seeded workload twice over durably-logged (fsync)
// stores — once serially, once interleaved with WAL group commit — writes
// the machine-readable BENCH_soak.json, and exits non-zero if either pass
// fails its consistency audit or, with -baseline, if serial throughput
// falls below min-ratio of the committed baseline's.
//
// With -wan the comparison changes axis: both passes run interleaved at
// the same degree over the compiled WAN link matrix, once with
// per-transaction ROWAA commit and once with epoch-batched commit, and
// the report goes to BENCH_wan.json. -commit rowaa or epoch runs a
// single pass and merges it into an existing report at the output path,
// so the two modes can be run as separate invocations of the identical
// seeded workload.
func runBench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		txns       = fs.Int("txns", 200, "transactions per pass")
		sites      = fs.Int("sites", 4, "database sites (with -wan: 0 defaults to 6)")
		items      = fs.Int("items", 64, "database items")
		conc       = fs.Int("conc", 8, "concurrent pass: per-site transaction degree and in-flight bound")
		degree     = fs.Int("degree", 0, "copies per item, placed round-robin (0 or >= -sites: full replication; partial replication forces both passes serial)")
		rate       = fs.Float64("rate", 0, "open-loop arrival rate in txn/s for the concurrent pass (0: unpaced peak-throughput comparison)")
		delay      = fs.Duration("delay", 500*time.Microsecond, "per-hop communication cost")
		seed       = fs.Int64("seed", 1987, "workload RNG seed")
		wan        = fs.String("wan", "", "WAN profile: bench rowaa vs epoch-batched commit over the compiled link matrix instead of serial vs concurrent (try wan2, wan3, wan5)")
		commitMode = fs.String("commit", "both", "with -wan: both (one invocation, two passes), or rowaa / epoch (single pass, merged into the report at -o)")
		commitLen  = fs.Duration("commit-epoch", 2*time.Millisecond, "with -wan: epoch length of the batched-commit pass")
		out        = fs.String("o", "", "output path for the JSON report (default BENCH_soak.json, or BENCH_wan.json with -wan; empty after explicit -o=: stdout summary only)")
		baseline   = fs.String("baseline", "", "committed report to regression-check throughput against (serial pass, or the rowaa pass with -wan)")
		minRatio   = fs.Float64("min-ratio", 0.3, "fail if the anchor pass ops/sec < min-ratio x baseline's (generous: CI runners vary)")
	)
	fs.Parse(args)
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !set["o"] {
		if *wan != "" {
			*out = "BENCH_wan.json"
		} else {
			*out = "BENCH_soak.json"
		}
	}

	if *wan != "" {
		cfg := experiment.WANBenchConfig{
			Base:        experiment.Config{Seed: *seed},
			Profile:     *wan,
			Txns:        *txns,
			Concurrency: *conc,
			Rate:        *rate,
			CommitEpoch: *commitLen,
		}
		// Unset, the WAN bench defaults apply: 6 sites (two per wan3
		// region), 256 items (measure the commit protocol, not deadlocks).
		if set["sites"] {
			cfg.Base.Sites = *sites
		}
		if set["items"] {
			cfg.Base.Items = *items
		}
		runWANBenchCmd(cfg, *commitMode, *out, *baseline, *minRatio)
		return
	}

	header(fmt.Sprintf("Soak throughput bench: serial vs concurrent(%d)+group-commit, %d txns", *conc, *txns))
	rep, err := experiment.RunSoakBench(experiment.SoakBenchConfig{
		Base: experiment.Config{
			Sites: *sites, Items: *items,
			Delay: *delay, Seed: *seed,
			ReplicationDegree: *degree,
		},
		Txns:        *txns,
		Concurrency: *conc,
		Rate:        *rate,
	})
	if err != nil {
		fail(err)
	}
	fmt.Println()
	fmt.Print(rep)
	finishBench(rep, *out, "serial", rep.Serial, *baseline, *minRatio)
}

// finishBench writes the report to out (when set) and, with a baseline,
// regression-checks the anchor pass against the committed report's pass
// under the same JSON key.
func finishBench(rep any, out, anchorKey string, anchor *experiment.BenchMode, baseline string, minRatio float64) {
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", out)
	}
	if baseline != "" {
		if err := checkBaseline(anchorKey, anchor, baseline, minRatio); err != nil {
			fmt.Fprintln(os.Stderr, "raid-experiments: bench:", err)
			os.Exit(1)
		}
	}
}

// runWANBenchCmd drives the -wan variant: rowaa vs epoch-batched commit
// over the same compiled WAN link matrix and the same seeded workload.
// mode both runs the two passes in one invocation; rowaa or epoch runs
// one pass and merges it into whatever report already sits at out.
func runWANBenchCmd(cfg experiment.WANBenchConfig, mode, out, baseline string, minRatio float64) {
	var rep *experiment.WANBenchReport
	var err error
	switch mode {
	case "both", "":
		header(fmt.Sprintf("WAN commit bench: rowaa vs epoch(%v) on %s, %d txns, degree %d", cfg.CommitEpoch, cfg.Profile, cfg.Txns, cfg.Concurrency))
		rep, err = experiment.RunWANBench(cfg)
	case "rowaa", "epoch":
		header(fmt.Sprintf("WAN commit bench: %s pass on %s, %d txns, degree %d", mode, cfg.Profile, cfg.Txns, cfg.Concurrency))
		rep, err = experiment.RunWANBenchOne(cfg, mode)
	default:
		fail(fmt.Errorf("unknown commit mode %q (want both, rowaa or epoch)", mode))
	}
	if err != nil {
		fail(err)
	}
	if out != "" {
		mergeWANReport(rep, out)
	}
	fmt.Println()
	fmt.Print(rep)
	finishBench(rep, out, "rowaa", rep.ROWAA, baseline, minRatio)
}

// mergeWANReport folds the other commit mode's pass from an existing
// report at path into rep, provided it came from the identical workload
// (same WAN fingerprint, seed, transaction count, degree and pacing) —
// this is what lets `-commit rowaa` and `-commit epoch` invocations
// accumulate into one BENCH_wan.json.
func mergeWANReport(rep *experiment.WANBenchReport, path string) {
	if rep.ROWAA != nil && rep.Epoch != nil {
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return // nothing to merge
	}
	var old experiment.WANBenchReport
	if err := json.Unmarshal(data, &old); err != nil || old.Schema != rep.Schema {
		return
	}
	if old.WANFingerprint != rep.WANFingerprint || old.Seed != rep.Seed ||
		old.Concurrency != rep.Concurrency || old.RateTxnPerSec != rep.RateTxnPerSec {
		fmt.Printf("note: %s is from a different configuration; not merging its passes\n", path)
		return
	}
	if rep.ROWAA == nil && old.ROWAA != nil && (rep.Epoch == nil || rep.Epoch.Txns == old.ROWAA.Txns) {
		rep.ROWAA = old.ROWAA
		fmt.Printf("merged rowaa pass from %s\n", path)
	}
	if rep.Epoch == nil && old.Epoch != nil && old.CommitEpochMs == rep.CommitEpochMs &&
		(rep.ROWAA == nil || rep.ROWAA.Txns == old.Epoch.Txns) {
		rep.Epoch = old.Epoch
		fmt.Printf("merged epoch pass from %s\n", path)
	}
	if rep.ROWAA != nil && rep.Epoch != nil && rep.ROWAA.OpsPerSec > 0 {
		rep.SpeedupX = rep.Epoch.OpsPerSec / rep.ROWAA.OpsPerSec
	}
}

// checkBaseline compares the anchor pass's throughput against the pass
// stored under the same key ("serial", or "rowaa" for the WAN bench) in a
// committed report. The anchor is the pass with the least machinery to
// hide a slowdown behind — no concurrency, no batching — so a protocol- or
// storage-layer regression shows up in it directly, while minRatio absorbs
// runner-to-runner hardware variance.
func checkBaseline(key string, got *experiment.BenchMode, path string, minRatio float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var passes map[string]json.RawMessage
	if err := json.Unmarshal(data, &passes); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	var base experiment.BenchMode
	if raw, ok := passes[key]; ok {
		if err := json.Unmarshal(raw, &base); err != nil {
			return fmt.Errorf("baseline %s: %s pass: %w", path, key, err)
		}
	}
	if base.OpsPerSec <= 0 {
		return fmt.Errorf("baseline %s has no %s ops/sec", path, key)
	}
	if got == nil {
		return fmt.Errorf("no %s pass in this run to compare against the baseline", key)
	}
	floor := base.OpsPerSec * minRatio
	if got.OpsPerSec < floor {
		return fmt.Errorf("%s throughput regression: %.1f txn/s < %.1f (%.0f%% of baseline %.1f)",
			key, got.OpsPerSec, floor, minRatio*100, base.OpsPerSec)
	}
	fmt.Printf("baseline check: %s %.1f txn/s >= %.1f (%.0f%% of committed %.1f) ok\n",
		key, got.OpsPerSec, floor, minRatio*100, base.OpsPerSec)
	return nil
}
