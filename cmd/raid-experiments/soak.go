package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"minraid/internal/cluster"
	"minraid/internal/experiment"
	"minraid/internal/policy"
	"minraid/internal/transport"
)

// runSoak drives the chaos soak subcommand:
//
//	raid-experiments soak                      # 5 seeds, default chaos
//	raid-experiments soak -seeds 1,2,3 -txns 60 -drop 0.03
//	raid-experiments soak -partitions          # + scheduled link cuts
//	raid-experiments soak -transport tcp       # loopback TCP fabric
//	raid-experiments soak -persist ./walstate  # carry WAL stores across epochs
//
// Each (seed, epoch) builds a fresh cluster on a seeded chaotic network,
// runs a generated fail/recover schedule with workload traffic, and audits
// copy consistency. With -partitions a deterministic link-fault schedule
// (symmetric partitions, one-way drops, partial cuts, heals) runs on top,
// and split brain is reconciled at every heal. Exit status is non-zero on
// any audit violation, and — unless -repro=false — the first epoch is
// re-run afterwards to prove determinism: same seed, identical partition
// event stream and per-link drop/dup/jitter/cut decisions.
func runSoak(args []string) {
	fs := flag.NewFlagSet("soak", flag.ExitOnError)
	var (
		seeds      = fs.String("seeds", "1,2,3,4,5", "comma-separated root seeds")
		epochs     = fs.Int("epochs", 1, "epochs per seed")
		txns       = fs.Int("txns", 40, "transactions per epoch")
		sites      = fs.Int("sites", 4, "database sites")
		items      = fs.Int("items", 30, "database items")
		degree     = fs.Int("degree", 0, "copies per item, placed round-robin, 0..-sites (0 or -sites: full replication; partial replication runs serially and needs -policy rowaa or quorum)")
		drop       = fs.Float64("drop", 0.02, "per-message drop probability on site-to-site links")
		dup        = fs.Float64("dup", 0.02, "per-message duplication probability")
		jitter     = fs.Duration("jitter", 5*time.Millisecond, "max injected per-message latency (keep well below -ack)")
		delay      = fs.Duration("delay", 0, "per-hop communication cost")
		ack        = fs.Duration("ack", 50*time.Millisecond, "failure-detection ack timeout")
		partitions = fs.Bool("partitions", false, "schedule deterministic link faults (partitions, one-way drops, cuts) and reconcile split brain at heals; with -wan the faults are region-sized")
		wan        = fs.String("wan", "", "WAN profile for geo-replication: sites assigned round-robin to regions, per-directed-link base delay/jitter/wire cost compiled from the region matrix (empty: flat chaos; try wan2, wan3, wan5)")
		commitMode = fs.String("commit", "rowaa", "commit mode: rowaa (per-transaction phase two) or epoch (batched fan-out once per commit epoch; requires -policy rowaa)")
		commitLen  = fs.Duration("commit-epoch", 2*time.Millisecond, "epoch length for -commit epoch (must stay under -ack)")
		scrubOn    = fs.Bool("scrub", false, "continuous heal: a background scrubber repairs fail-locks alongside the workload (replaces the drain epilogue)")
		scrubRate  = fs.Float64("scrub-rate", 0, "scrubber budget in items/sec (0: unthrottled)")
		scrubBatch = fs.Int("scrub-batch", 0, "items per scrub copier transaction (0: scrub default)")
		conc       = fs.Int("concurrency", 0, "per-site concurrent transaction degree (0: 4 where the policy supports it, else 1; 1: the paper's serial processing)")
		rate       = fs.Float64("rate", 0, "open-loop arrival rate in txns/sec for the concurrent driver (0: issue as fast as the in-flight bound allows)")
		lockwait   = fs.Duration("lockwait", 0, "per-site lock-wait budget; must stay below -ack so a lock wait never looks like a site failure (0: ack/2)")
		policyName = fs.String("policy", "rowaa", "replication policy: rowaa, rowa or quorum")
		trans      = fs.String("transport", "memory", "wire: memory or tcp (tcp also re-runs in memory and compares abort profiles)")
		persist    = fs.String("persist", "", "directory for write-ahead-logged stores carried across a seed's epochs (empty: in-memory stores)")
		repro      = fs.Bool("repro", true, "re-run the first epoch and verify identical partition events and chaos decisions")
		pct        = fs.Bool("percentiles", false, "also print p50/p95/p99 latency tables per event class")
		quiet      = fs.Bool("q", false, "suppress per-epoch progress lines")
		fabric     = fs.String("fabric", "local", "deployment shape: local (in-process cluster, simulated failures) or proc (raidsrv OS processes, SIGKILL failures, restart-with-WAL-replay recovery)")
		raidsrv    = fs.String("raidsrv", "", "prebuilt raidsrv binary for -fabric proc (empty: go build from source)")
		workdir    = fs.String("workdir", "", "work dir for -fabric proc: spec file, per-site logs, WAL trees (empty: a temp dir, removed on exit)")
	)
	fs.Parse(args)

	pol, known := policy.ByName(*policyName)
	if !known {
		fail(fmt.Errorf("unknown policy %q (want rowaa, rowa or quorum)", *policyName))
	}
	var commitEpoch time.Duration
	switch *commitMode {
	case "rowaa", "":
	case "epoch":
		commitEpoch = *commitLen
	default:
		fail(fmt.Errorf("unknown commit mode %q (want rowaa or epoch)", *commitMode))
	}
	if *fabric == "proc" {
		// Chaos probabilities and the transport selector are in-process
		// knobs; clear their defaults so only an explicit request reaches
		// the proc validator (which explains why it cannot honor them).
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["drop"] {
			*drop = 0
		}
		if !set["dup"] {
			*dup = 0
		}
		if !set["jitter"] {
			*jitter = 0
		}
		if !set["transport"] {
			*trans = ""
		}
		if !set["ack"] {
			// Failure detection across real OS processes: scheduling hiccups
			// alone can exceed the in-process 50ms default.
			*ack = 250 * time.Millisecond
		}
	}
	cfg := experiment.SoakConfig{
		Base: experiment.Config{Config: cluster.Config{
			Sites:             *sites,
			Items:             *items,
			Delay:             *delay,
			AckTimeout:        *ack,
			Policy:            pol,
			ReplicationDegree: *degree,
			ConcurrentTxns:    *conc,
			LockWaitBudget:    *lockwait,
			CommitEpoch:       commitEpoch,
			Chaos:             &transport.ChaosConfig{Drop: *drop, Dup: *dup, MaxJitter: *jitter},
			Transport:         *trans,
		}},
		Seeds:         parseSeeds(*seeds),
		EpochsPerSeed: *epochs,
		TxnsPerEpoch:  *txns,
		Partitions:    *partitions,
		WANProfile:    *wan,
		Scrub:         *scrubOn,
		ScrubRate:     *scrubRate,
		ScrubBatch:    *scrubBatch,
		WALDir:        *persist,
		ArrivalRate:   *rate,
		Fabric:        *fabric,
		RaidsrvBin:    *raidsrv,
		WorkDir:       *workdir,
	}
	if !*quiet {
		cfg.Logf = func(format string, a ...any) { fmt.Printf(format+"\n", a...) }
	}

	mode := ""
	if *partitions {
		mode = ", partitions on"
	}
	if *wan != "" {
		mode += fmt.Sprintf(", wan %s", *wan)
	}
	if commitEpoch > 0 {
		mode += fmt.Sprintf(", epoch commit %v", commitEpoch)
	}
	if *scrubOn {
		mode += ", scrub on"
	}
	if *degree > 0 && *degree < *sites {
		mode += fmt.Sprintf(", degree %d of %d", *degree, *sites)
	}
	if *fabric == "proc" {
		mode += ", fabric proc (SIGKILL failures, WAL-replay recovery)"
	}
	header(fmt.Sprintf("Chaos soak: %d seed(s) x %d epoch(s) x %d txns (policy=%s transport=%s drop=%v dup=%v jitter=%v%s)",
		len(cfg.Seeds), cfg.EpochsPerSeed, cfg.TxnsPerEpoch, *policyName, *trans, *drop, *dup, *jitter, mode))
	res, err := experiment.RunSoak(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Println()
	fmt.Print(res)
	if *wan != "" {
		for _, e := range res.Epochs {
			fmt.Printf("seed %d epoch %d wan: %s (link matrix fingerprint %016x)\n",
				e.Seed, e.Epoch, e.WANRegions, e.WANFingerprint)
		}
	}
	if *partitions {
		for _, e := range res.Epochs {
			fmt.Printf("seed %d epoch %d partition schedule (fingerprint %016x): %s\n",
				e.Seed, e.Epoch, e.NetFingerprint, strings.Join(e.NetEvents, "; "))
		}
	}
	if *scrubOn {
		for _, e := range res.Epochs {
			fmt.Printf("seed %d epoch %d heal: %v via %d scrub passes (%d items refreshed, %d copier txns), %d fail-locks left\n",
				e.Seed, e.Epoch, e.HealTime.Round(time.Millisecond),
				e.ScrubPasses, e.ScrubItems, e.ScrubCopiers, e.LocksAfterDrain)
		}
	}
	if *fabric == "proc" {
		for _, e := range res.Epochs {
			fmt.Printf("seed %d epoch %d crash cycles: %d SIGKILLs, %d exec+WAL-replay restarts, %d drain copiers\n",
				e.Seed, e.Epoch, e.Kills, e.Restarts, e.DrainCopiers)
		}
	}
	for _, e := range res.Epochs {
		if !e.AuditOK {
			fmt.Printf("\nseed %d epoch %d audit detail:\n%s\n", e.Seed, e.Epoch, e.AuditDetail)
		}
	}
	percentiles(*pct, res.Percentiles)

	ok := res.OK()
	if *trans == "tcp" {
		if err := compareTransports(cfg, res); err != nil {
			fmt.Fprintln(os.Stderr, "raid-experiments: soak:", err)
			ok = false
		}
	}
	if *repro && len(res.Epochs) > 0 {
		reproErr := verifyRepro(cfg, res.Epochs[0])
		if reproErr != nil {
			fmt.Fprintln(os.Stderr, "raid-experiments: soak:", reproErr)
			ok = false
		} else if res.Epochs[0].Concurrency > 1 || cfg.Scrub {
			why := fmt.Sprintf("concurrency %d: per-link chaos counters may race and are not compared", res.Epochs[0].Concurrency)
			if cfg.Scrub {
				why = "scrub traffic is timing-dependent, so per-link chaos counters are not compared"
			}
			fmt.Printf("\nrepro check: seed %d epoch %d re-run reproduced identical failure events (%d), partition events (%d) and workload fingerprint %016x (%s)\n",
				res.Epochs[0].Seed, res.Epochs[0].Epoch, len(res.Epochs[0].FailEvents), len(res.Epochs[0].NetEvents),
				res.Epochs[0].WorkloadFingerprint, why)
		} else {
			fmt.Printf("\nrepro check: seed %d epoch %d re-run reproduced identical failure events (%d), partition events (%d), workload fingerprint %016x and chaos decisions on %d links\n",
				res.Epochs[0].Seed, res.Epochs[0].Epoch, len(res.Epochs[0].FailEvents), len(res.Epochs[0].NetEvents),
				res.Epochs[0].WorkloadFingerprint, len(res.Epochs[0].Chaos))
		}
		if reproErr == nil && cfg.WANProfile != "" {
			fmt.Printf("repro check: wan %s recompiled to the identical link matrix (fingerprint %016x)\n",
				cfg.WANProfile, res.Epochs[0].WANFingerprint)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// verifyRepro re-runs one epoch and compares the injected-fault streams
// (fail/recover schedule, partition events) and the issued-workload
// fingerprint against the first run's; in serial mode it also compares the
// chaos layer's per-link decision counters. In concurrent mode those
// counters are excluded: goroutine interleavings reorder retries and
// timer-driven sends, so per-link consumption of the chaos decision stream
// legitimately differs between bit-identical workloads. Scrub mode is
// excluded for the same reason — the background scrubber's batches land
// at wall-clock times, not schedule points.
func verifyRepro(cfg experiment.SoakConfig, first experiment.EpochResult) error {
	cfg.Seeds = []int64{first.Seed}
	cfg.EpochsPerSeed = 1
	rerun, err := rerunSoak(cfg)
	if err != nil {
		return fmt.Errorf("repro re-run: %w", err)
	}
	re := rerun.Epochs[0]
	if !reflect.DeepEqual(re.FailEvents, first.FailEvents) {
		return fmt.Errorf("repro check failed: seed %d epoch %d produced a different failure schedule:\nfirst: %v\nrerun: %v",
			first.Seed, first.Epoch, first.FailEvents, re.FailEvents)
	}
	if !reflect.DeepEqual(re.NetEvents, first.NetEvents) || re.NetFingerprint != first.NetFingerprint {
		return fmt.Errorf("repro check failed: seed %d epoch %d produced a different partition schedule:\nfirst: %016x %v\nrerun: %016x %v",
			first.Seed, first.Epoch, first.NetFingerprint, first.NetEvents, re.NetFingerprint, re.NetEvents)
	}
	if re.WorkloadFingerprint != first.WorkloadFingerprint {
		return fmt.Errorf("repro check failed: seed %d epoch %d issued a different workload stream:\nfirst: %016x\nrerun: %016x",
			first.Seed, first.Epoch, first.WorkloadFingerprint, re.WorkloadFingerprint)
	}
	if re.WANFingerprint != first.WANFingerprint || re.WANRegions != first.WANRegions {
		return fmt.Errorf("repro check failed: seed %d epoch %d compiled a different WAN link matrix:\nfirst: %016x %s\nrerun: %016x %s",
			first.Seed, first.Epoch, first.WANFingerprint, first.WANRegions, re.WANFingerprint, re.WANRegions)
	}
	if first.Concurrency <= 1 && !cfg.Scrub && !reflect.DeepEqual(re.Chaos, first.Chaos) {
		return fmt.Errorf("repro check failed: seed %d epoch %d produced different chaos decisions:\nfirst: %s\nrerun: %s",
			first.Seed, first.Epoch, fmtChaos(first.Chaos), fmtChaos(re.Chaos))
	}
	return nil
}

// rerunSoak runs cfg again, quietly and from empty state: a fresh
// directory for persisted stores, and for a process fleet a fresh work
// dir, so it boots on empty WAL trees rather than the first run's.
func rerunSoak(cfg experiment.SoakConfig) (*experiment.SoakResult, error) {
	cfg.Logf = nil
	cfg.WorkDir = ""
	if cfg.WALDir != "" {
		dir, err := os.MkdirTemp("", "raid-soak-rerun-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.WALDir = dir
	}
	return experiment.RunSoak(cfg)
}

// compareTransports re-runs the soak on the in-memory transport and
// prints the abort-reason profiles side by side: the wire changes framing
// and delivery mechanics, not protocol outcomes, so the profiles should
// tell the same story.
func compareTransports(cfg experiment.SoakConfig, tcpRes *experiment.SoakResult) error {
	cfg.Base.Transport = "memory"
	memRes, err := rerunSoak(cfg)
	if err != nil {
		return fmt.Errorf("in-memory comparison run: %w", err)
	}
	fmt.Printf("\nAbort profile, tcp vs memory (same seeds and schedules)\n")
	fmt.Printf("  %-52s %8s %8s\n", "reason", "tcp", "memory")
	reasons := make(map[string]bool)
	for r := range tcpRes.AbortReasons {
		reasons[r] = true
	}
	for r := range memRes.AbortReasons {
		reasons[r] = true
	}
	keys := make([]string, 0, len(reasons))
	for r := range reasons {
		keys = append(keys, r)
	}
	sort.Strings(keys)
	for _, r := range keys {
		fmt.Printf("  %-52s %8d %8d\n", r, tcpRes.AbortReasons[r], memRes.AbortReasons[r])
	}
	fmt.Printf("  %-52s %8d %8d\n", "total aborts", tcpRes.Aborted, memRes.Aborted)
	fmt.Printf("  %-52s %8d %8d\n", "committed", tcpRes.Committed, memRes.Committed)
	if !memRes.OK() {
		return fmt.Errorf("in-memory comparison run had %d audit violations", memRes.Violations)
	}
	return nil
}

func fmtChaos(m map[transport.LinkID]transport.LinkStats) string {
	var total transport.LinkStats
	for _, s := range m {
		total.Add(s)
	}
	return fmt.Sprintf("links=%d sent=%d dropped=%d dup=%d cut=%d jitter=%v",
		len(m), total.Sent, total.Dropped, total.Duplicated, total.Cut, total.JitterTotal)
}

func parseSeeds(s string) []int64 {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			fail(fmt.Errorf("bad seed %q: %w", part, err))
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		fail(fmt.Errorf("no seeds given"))
	}
	return out
}
