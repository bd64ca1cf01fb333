package experiment

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"minraid/internal/cluster"
	"minraid/internal/core"
	"minraid/internal/deploy"
	"minraid/internal/failure"
	"minraid/internal/geo"
	"minraid/internal/metrics"
	"minraid/internal/msg"
	"minraid/internal/storage"
	"minraid/internal/transport"
	"minraid/internal/workload"
)

// SoakConfig parameterizes a randomized robustness run: many seeded epochs
// of generated fail/recover schedules plus workload traffic, all under a
// chaotic network, audited for copy consistency after every epoch.
type SoakConfig struct {
	// Base supplies the cluster and workload parameters. Zero fields get
	// the soak defaults: 4 sites, 30 items, 5 ops.
	//
	// Base.ConcurrentTxns is also the driver's in-flight bound. Zero
	// defaults to 4 wherever the cluster's rules allow interleaving
	// (ROWAA, full replication) and 1 otherwise; 1 forces the paper's
	// serial processing. In concurrent mode the driver issues transactions
	// in waves between schedule-event boundaries: failures, recoveries and
	// partition events still land at their scheduled transaction numbers
	// against a write-quiescent system, while the transactions between
	// two events execute interleaved.
	//
	// Base.Chaos carries the fault probabilities (Drop, Dup, MaxJitter).
	// Its Seed is overridden per epoch and ExemptManager forced on: the
	// managing site is the experimenter's out-of-band console. MaxJitter
	// should stay well below Base.AckTimeout so jitter alone never
	// masquerades as a site failure.
	Base Config
	// Seeds are the root seeds; each runs EpochsPerSeed epochs. Every
	// epoch derives its own chaos seed and schedule from (seed, epoch),
	// so any failing epoch can be re-run alone.
	Seeds []int64
	// EpochsPerSeed is the number of epochs per root seed (default 1).
	EpochsPerSeed int
	// TxnsPerEpoch is the workload length of one epoch (default 40).
	TxnsPerEpoch int
	// ArrivalRate, when positive, paces the concurrent driver open-loop
	// at this many transactions per second (latency measured from
	// scheduled arrival; see workload.OpenLoop). Zero issues as fast as
	// the in-flight bound allows.
	ArrivalRate float64
	// WANProfile names a geo-replication profile (internal/geo). Sites
	// are assigned round-robin to the profile's regions and every
	// directed link gets a compiled base-delay/jitter/per-message-cost
	// from the region-pair matrix, asymmetrically skewed per link but
	// deterministic from the epoch seed. With Partitions on, the
	// link-fault scheduler switches to region-sized events: whole-region
	// partitions and one-way inter-region drops. The chaos Drop/Dup
	// probabilities still apply on top. Empty disables the WAN layer.
	WANProfile string
	// MaxDown caps simultaneously failed sites in generated schedules
	// (default sites-1).
	MaxDown int
	// Partitions enables scheduled link faults: each epoch merges a
	// deterministic partition/one-way/cut event stream, drawn from its
	// seed, into its fail/recover schedule, keeps issuing workload on
	// both sides of every cut, and reconciles split brain at heal time
	// through the paper's machinery (session-vector comparison, fail-lock
	// collection, copier transactions).
	Partitions bool
	// Scrub enables the continuous-heal regime: a background scrubber
	// repairs fail-locked items in rate-limited copier batches while
	// workload traffic continues (every recovery is already operational
	// once type-1 installs its fail-lock set). The epoch-end epilogue then
	// waits for the scrubber to reach zero truly-up fail-locks instead of
	// running the DrainFailLocks passes. Ignored for policies that do not
	// use fail-locks.
	Scrub bool
	// ScrubRate caps the scrubber at this many items per second
	// (0 = unthrottled); ScrubBatch bounds items per copier transaction
	// (0 = scrub default).
	ScrubRate  float64
	ScrubBatch int
	// Fabric selects the deployment shape: "" or "local" runs every site
	// as goroutines of one in-process cluster with the paper's simulated
	// failures; "proc" execs one raidsrv OS process per site, fails sites
	// with SIGKILL and recovers them by re-exec + WAL replay + type-1.
	// The in-process mechanisms — chaos, delay, partitions, WAN links,
	// epoch commit, the memory wire and WALDir — are rejected under
	// "proc" (see validateProc).
	Fabric string
	// RaidsrvBin is the raidsrv executable for Fabric "proc"; empty
	// builds it from source into the work dir (go toolchain required).
	RaidsrvBin string
	// WorkDir holds the process fabric's spec file, per-site logs and WAL
	// trees; empty uses a removed-on-exit temp dir (set it to keep logs).
	WorkDir string
	// WALDir, when non-empty, persists every site's database in
	// write-ahead-logged stores under WALDir/seedN/siteK and carries
	// them across the seed's epochs: an epoch boundary becomes a
	// whole-system crash (close) and restart (reopen) instead of a
	// fresh database. Transaction IDs stay monotone across the seed's
	// epochs so on-disk item versions never regress.
	WALDir string
	// Logf, when non-nil, receives per-epoch progress lines.
	Logf func(format string, args ...any)
}

func (c SoakConfig) withDefaults() SoakConfig {
	c.Base = c.Base.withDefaults(4, 30, 5)
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3, 4, 5}
	}
	if c.EpochsPerSeed == 0 {
		c.EpochsPerSeed = 1
	}
	if c.TxnsPerEpoch == 0 {
		c.TxnsPerEpoch = 40
	}
	if c.Base.ConcurrentTxns == 0 {
		// Interleaved execution is the default soak regime wherever the
		// cluster's rules allow it.
		c.Base.ConcurrentTxns = 4
		if c.Base.Validate() != nil {
			c.Base.ConcurrentTxns = 1
		}
	}
	if c.Fabric == "proc" && c.MaxDown == 0 {
		// Fail-lock tables are volatile and fully replicated; a SIGKILL
		// destroys the dead site's table but every survivor still holds a
		// complete copy. One-at-a-time failure (the paper's experimental
		// regime) keeps that invariant trivially; deeper simultaneous
		// kills are opt-in.
		c.MaxDown = 1
	}
	return c
}

// usesFailLocks reports whether the policy tracks staleness in fail-locks
// (and so has anything to scrub, drain or audit through them).
func (c SoakConfig) usesFailLocks() bool {
	return c.Base.Protocol().UsesFailLocks()
}

// scrubOn reports whether the continuous-heal regime is in effect.
func (c SoakConfig) scrubOn() bool { return c.Scrub && c.usesFailLocks() }

func (c SoakConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// EpochResult is one epoch's outcome.
type EpochResult struct {
	// Seed and Epoch identify the run; ChaosSeed is the derived seed the
	// chaos layer actually used.
	Seed      int64
	Epoch     int
	ChaosSeed int64
	// Txns, Committed, Aborted account for the epoch's transactions.
	Txns, Committed, Aborted int
	// AbortReasons counts aborts by reason string.
	AbortReasons map[string]int
	// Repairs counts false-suspicion repairs: a truly-up site that some
	// other truly-up site declared failed (its ack lost to chaos) was
	// failed and recovered by the manager to rejoin it to the group.
	Repairs int
	// RecoveryRetries counts recovery attempts that came back blocked
	// because chaos ate the donor handshake, and were retried.
	RecoveryRetries int
	// Concurrency records the per-site interleaving degree the epoch ran
	// with (1 = the paper's serial processing).
	Concurrency int
	// WANProfile and WANRegions record the compiled geo profile and its
	// site->region map; WANFingerprint hashes the full compiled link
	// matrix — the determinism witness -repro compares for WAN runs.
	// Empty/zero unless the soak ran with a WAN profile.
	WANProfile, WANRegions string
	WANFingerprint         uint64
	// NetEvents is the epoch schedule's link events in canonical
	// rendering, and NetFingerprint their FNV-1a hash — the determinism
	// witness the -repro check compares. Empty unless Partitions is on.
	NetEvents      []string
	NetFingerprint uint64
	// FailEvents is the schedule's fail/recover events in canonical
	// rendering — with NetEvents, the injected-fault half of the
	// determinism witness.
	FailEvents []string
	// WorkloadFingerprint hashes the issued transaction stream
	// (number, ID, coordinator, operations): a pure function of the seed
	// and the schedules, so it must be bit-identical across reruns even
	// in concurrent mode, where outcomes and per-link chaos counters are
	// allowed to race.
	WorkloadFingerprint uint64
	// PartitionTxns counts transactions issued while some link was down;
	// PartitionAborts those of them that aborted, classified by
	// PartitionAbortReasons (the partition-time rejection profile).
	PartitionTxns, PartitionAborts int
	PartitionAbortReasons          map[string]int
	// SplitBrains counts reconciliations that detected mutual suspicion
	// or divergent copies; DivergentItems totals items found at
	// differing versions across sites; LocksSet and LocksCleared the
	// fail-lock edits reconciliation installed to re-track staleness.
	SplitBrains, DivergentItems int
	LocksSet, LocksCleared      int
	// DrainCopiers counts copier transactions run to drain fail-locks at
	// epoch end; LocksAfterDrain is what was left (0 for a clean epoch).
	DrainCopiers, LocksAfterDrain int
	// HealTime is the epilogue wall time to reach zero truly-up
	// fail-locks through the background scrubber (zero when scrub is off
	// and the DrainFailLocks epilogue ran instead).
	HealTime time.Duration
	// ScrubPasses, ScrubItems and ScrubCopiers copy the scrubber's
	// lifetime counters: table scans, items refreshed, copier
	// transactions committed on its behalf.
	ScrubPasses, ScrubItems, ScrubCopiers int
	// Kills and Restarts count the process fabric's SIGKILLs and
	// exec-with-replay recoveries (zero on the in-process fabric, whose
	// failures are the Fail/Recover orders counted elsewhere).
	Kills, Restarts int
	// DeferredRecoveries counts scheduled recoveries that found no
	// reachable donor (recovery blocked, §3.2) and waited for the heal;
	// SkippedFails counts scheduled failures skipped because a deferred
	// recovery left the schedule's model of the up-set ahead of reality.
	DeferredRecoveries, SkippedFails int
	// AuditOK reports the epoch-end consistency audit; AuditDetail holds
	// its rendering when it failed.
	AuditOK     bool
	AuditDetail string
	// Chaos is the per-link decision counters — the reproducibility
	// fingerprint of the epoch.
	Chaos map[transport.LinkID]transport.LinkStats
}

// ChaosTotal folds the epoch's per-link counters into one.
func (e *EpochResult) ChaosTotal() transport.LinkStats {
	var total transport.LinkStats
	for _, s := range e.Chaos {
		total.Add(s)
	}
	return total
}

// SoakResult aggregates a whole soak run.
type SoakResult struct {
	// Epochs holds every epoch in run order.
	Epochs []EpochResult
	// Txns, Committed, Aborted aggregate across epochs.
	Txns, Committed, Aborted int
	// AbortReasons aggregates abort counts by reason.
	AbortReasons map[string]int
	// PartitionTxns, PartitionAborts, SplitBrains, DivergentItems,
	// LocksSet, LocksCleared and DrainCopiers aggregate the partition
	// scheduler's accounting across epochs.
	PartitionTxns, PartitionAborts int
	SplitBrains, DivergentItems    int
	LocksSet, LocksCleared         int
	DrainCopiers                   int
	// ScrubItems and ScrubCopiers aggregate the background scrubber's
	// work across epochs; MaxHealTime is the slowest epoch epilogue heal.
	ScrubItems, ScrubCopiers int
	MaxHealTime              time.Duration
	// PartitionAbortReasons aggregates partition-time aborts by reason.
	PartitionAbortReasons map[string]int
	// Violations counts epochs whose audit failed.
	Violations int
	// Percentiles merges every epoch's latency histograms and message
	// counts.
	Percentiles *PercentileReport
}

// OK reports whether every epoch audited clean.
func (r *SoakResult) OK() bool { return r.Violations == 0 }

// String renders the soak summary table.
func (r *SoakResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Soak: %d epochs, %d txns (%d committed, %d aborted), %d audit violations\n",
		len(r.Epochs), r.Txns, r.Committed, r.Aborted, r.Violations)
	fmt.Fprintf(&b, "  %-6s %-5s %6s %6s %6s %7s %8s %8s %8s %8s %8s  %s\n",
		"seed", "epoch", "txns", "commit", "abort", "repairs", "sent", "dropped", "dup", "cut", "jitter", "audit")
	for _, e := range r.Epochs {
		total := e.ChaosTotal()
		verdict := "ok"
		if !e.AuditOK {
			verdict = "VIOLATION"
		}
		fmt.Fprintf(&b, "  %-6d %-5d %6d %6d %6d %7d %8d %8d %8d %8d %8v  %s\n",
			e.Seed, e.Epoch, e.Txns, e.Committed, e.Aborted, e.Repairs,
			total.Sent, total.Dropped, total.Duplicated, total.Cut,
			total.JitterTotal.Round(time.Millisecond), verdict)
	}
	if r.PartitionTxns > 0 || r.SplitBrains > 0 {
		fmt.Fprintf(&b, "Partitions: %d partition-time txns (%d aborted), %d split-brain reconciliations, %d divergent items, fail-lock edits +%d/-%d, %d drain copiers\n",
			r.PartitionTxns, r.PartitionAborts, r.SplitBrains, r.DivergentItems,
			r.LocksSet, r.LocksCleared, r.DrainCopiers)
	}
	if r.ScrubItems > 0 || r.ScrubCopiers > 0 {
		fmt.Fprintf(&b, "Scrub: %d items refreshed in background by %d copier txns, slowest epoch heal %v\n",
			r.ScrubItems, r.ScrubCopiers, r.MaxHealTime.Round(time.Millisecond))
	}
	writeReasons := func(title string, reasons map[string]int) {
		if len(reasons) == 0 {
			return
		}
		fmt.Fprintf(&b, "%s\n", title)
		keys := make([]string, 0, len(reasons))
		for reason := range reasons {
			keys = append(keys, reason)
		}
		sort.Strings(keys)
		for _, reason := range keys {
			fmt.Fprintf(&b, "  %-52s %6d\n", reason, reasons[reason])
		}
	}
	writeReasons("Aborts by reason", r.AbortReasons)
	writeReasons("Partition-time aborts by reason", r.PartitionAbortReasons)
	return b.String()
}

// splitmix64 is the splitmix64 output mix: it turns a structured counter
// into an unrelated-looking seed.
func splitmix64(z uint64) int64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// epochSeed derives the chaos seed for (root seed, epoch), so epochs of
// one root seed see unrelated fault streams but remain individually
// re-runnable.
func epochSeed(seed int64, epoch int) int64 {
	return splitmix64(uint64(seed)*0x9E3779B97F4A7C15 + uint64(epoch+1)*0xBF58476D1CE4E5B9)
}

// netSeed derives the partition-schedule seed from the epoch's chaos seed
// with one more round, so the link-fault stream is unrelated to both the
// chaos decision streams and the fail/recover schedule (which consume the
// chaos seed directly).
func netSeed(chaosSeed int64) int64 {
	return splitmix64(uint64(chaosSeed) + 0x9E3779B97F4A7C15)
}

// RunSoak drives the full soak: for every (seed, epoch) it runs a generated
// fail/recover schedule (plus, with Partitions, a generated link-fault
// schedule) with workload traffic over a deploy.Fabric, heals the system,
// and audits copy consistency. The fabric is the only thing Fabric
// selects: a fresh in-process cluster per epoch, or one fleet of raidsrv
// processes per seed.
func RunSoak(cfg SoakConfig) (*SoakResult, error) {
	cfg = cfg.withDefaults()
	// boot launches a seed's process fleet; nil runs every epoch on a
	// fresh in-process cluster.
	var boot func(seed int64) (deploy.Fabric, error)
	switch cfg.Fabric {
	case "", "local":
	case "proc":
		var cleanup func()
		var err error
		if boot, cleanup, err = procFleets(cfg); err != nil {
			return nil, err
		}
		defer cleanup()
	default:
		return nil, fmt.Errorf("experiment: unknown fabric %q (want local or proc)", cfg.Fabric)
	}
	res := &SoakResult{
		AbortReasons:          make(map[string]int),
		PartitionAbortReasons: make(map[string]int),
		Percentiles:           &PercentileReport{Hists: make(map[string]metrics.HistogramStat), Msgs: make(map[string]uint64)},
	}
	for _, seed := range cfg.Seeds {
		if err := runSoakSeed(cfg, seed, boot, res); err != nil {
			if boot != nil && cfg.WorkDir != "" {
				err = fmt.Errorf("%w (site logs under %s)", err, cfg.WorkDir)
			}
			return nil, err
		}
	}
	return res, nil
}

// runSoakSeed runs one seed's epochs and folds them into res. A process
// fleet (one WAL tree) serves all of them, so epoch boundaries carry real
// on-disk state.
func runSoakSeed(cfg SoakConfig, seed int64, boot func(int64) (deploy.Fabric, error), res *SoakResult) error {
	var fleet deploy.Fabric
	if boot != nil {
		var err error
		if fleet, err = boot(seed); err != nil {
			return fmt.Errorf("experiment: proc fabric seed %d: %w", seed, err)
		}
		defer fleet.Close()
	}
	// With persistence, item versions are transaction IDs carried in the
	// on-disk stores; each epoch numbers transactions after the previous
	// one so versions stay monotone across restarts.
	var txnBase uint64
	for epoch := 0; epoch < cfg.EpochsPerSeed; epoch++ {
		er, pct, lastTxn, err := runSoakEpoch(cfg, seed, epoch, fleet, txnBase)
		if err != nil {
			return fmt.Errorf("experiment: soak seed %d epoch %d: %w", seed, epoch, err)
		}
		if cfg.WALDir != "" {
			txnBase = lastTxn
		}
		res.Epochs = append(res.Epochs, *er)
		res.Txns += er.Txns
		res.Committed += er.Committed
		res.Aborted += er.Aborted
		for reason, n := range er.AbortReasons {
			res.AbortReasons[reason] += n
		}
		res.PartitionTxns += er.PartitionTxns
		res.PartitionAborts += er.PartitionAborts
		res.SplitBrains += er.SplitBrains
		res.DivergentItems += er.DivergentItems
		res.LocksSet += er.LocksSet
		res.LocksCleared += er.LocksCleared
		res.DrainCopiers += er.DrainCopiers
		res.ScrubItems += er.ScrubItems
		res.ScrubCopiers += er.ScrubCopiers
		if er.HealTime > res.MaxHealTime {
			res.MaxHealTime = er.HealTime
		}
		for reason, n := range er.PartitionAbortReasons {
			res.PartitionAbortReasons[reason] += n
		}
		if !er.AuditOK {
			res.Violations++
		}
		res.Percentiles.Merge(pct)
		total := er.ChaosTotal()
		extra := ""
		if cfg.Scrub {
			extra = fmt.Sprintf(", heal=%v scrub(passes=%d items=%d copiers=%d)",
				er.HealTime.Round(time.Millisecond), er.ScrubPasses, er.ScrubItems, er.ScrubCopiers)
		}
		if boot != nil {
			extra += fmt.Sprintf(", %d kills, %d restarts", er.Kills, er.Restarts)
		}
		cfg.logf("soak seed=%d epoch=%d: %d txns (%d committed), %d repairs, %d net events, chaos sent=%d dropped=%d dup=%d cut=%d%s, audit=%v",
			seed, epoch, er.Txns, er.Committed, er.Repairs, len(er.NetEvents),
			total.Sent, total.Dropped, total.Duplicated, total.Cut, extra, er.AuditOK)
	}
	return nil
}

// soakIssue is one pre-generated transaction of a wave: everything about
// it except its outcome is fixed before execution starts.
type soakIssue struct {
	num   int
	id    core.TxnID
	coord core.SiteID
	ops   []core.Op
}

// execIssues executes pre-generated transactions through the managing
// site, at most inFlight at a time (1 is the paper's serial processing),
// paced open-loop at rate per second when positive. IDs and operations
// were allocated serially by the caller, so the racing closures only
// execute. Results are in issue order; the first managing-site error wins.
func execIssues(mgr *cluster.Manager, issues []soakIssue, inFlight int, rate float64) ([]*msg.TxnResult, error) {
	outs := make([]*msg.TxnResult, len(issues))
	var execMu sync.Mutex
	var execErr error
	ol := &workload.OpenLoop{Rate: rate, Count: len(issues), MaxInFlight: inFlight}
	ol.Run(func(i int) {
		iss := issues[i]
		out, err := mgr.ExecTxn(iss.coord, iss.id, iss.ops)
		if err != nil {
			execMu.Lock()
			if execErr == nil {
				execErr = fmt.Errorf("txn %d on %s: %w", iss.num, iss.coord, err)
			}
			execMu.Unlock()
			return
		}
		outs[i] = out
	})
	if execErr != nil {
		return nil, execErr
	}
	return outs, nil
}

// openLocalFabric builds one epoch's in-process cluster — the chaotic
// wire, and with WALDir the seed's persisted stores reopened — as a
// LocalFabric. The returned function tears the cluster down and then
// closes the WAL handles: sites never close their stores (a failed site
// keeps its database, §1.2), so the epoch owns them and flushes the state
// the next epoch reopens.
func openLocalFabric(cfg SoakConfig, chaosCfg *transport.ChaosConfig, seed int64, txnBase uint64) (*deploy.LocalFabric, func(), error) {
	ccfg := cfg.Base.Config
	ccfg.Chaos = chaosCfg
	closeStores := func() {}
	if cfg.WALDir != "" {
		dir := filepath.Join(cfg.WALDir, fmt.Sprintf("seed%d", seed))
		ccfg.StoreFactory, closeStores = walStoreFactory(dir, storage.WALOptions{Items: cfg.Base.Items})
		ccfg.TxnIDBase = txnBase
	}
	c, err := cluster.New(ccfg)
	if err != nil {
		closeStores()
		return nil, nil, err
	}
	fab := deploy.NewLocalFabric(c)
	return fab, func() { fab.Close(); closeStores() }, nil
}

// runSoakEpoch runs one epoch — on fleet when the caller booted one, else
// on a fresh in-process cluster of its own — and returns the epoch result,
// its latency percentiles (in-process only), and the last transaction ID
// allocated.
//
// Every transaction, repair, drain, reconcile and audit goes through the
// fabric's Manager, and schedule events through its Kill/Restart, so the
// loop is the same whether a failure is the paper's simulated one or a
// SIGKILL. The steps that act on the in-process wire — chaos and its
// counters, link cuts, settling lost-decision timers, per-site latency
// histograms — use the *cluster.Cluster behind a LocalFabric and are
// skipped on a fabric that has none (validateProc rejects the options that
// would need them).
func runSoakEpoch(cfg SoakConfig, seed int64, epoch int, fleet deploy.Fabric, txnBase uint64) (*EpochResult, *PercentileReport, uint64, error) {
	base := cfg.Base
	var chaosCfg transport.ChaosConfig
	if base.Chaos != nil {
		chaosCfg = *base.Chaos
	}
	chaosCfg.Seed = epochSeed(seed, epoch)
	chaosCfg.ExemptManager = true
	er := &EpochResult{
		Seed:                  seed,
		Epoch:                 epoch,
		ChaosSeed:             chaosCfg.Seed,
		Concurrency:           base.ConcurrentTxns,
		AbortReasons:          make(map[string]int),
		PartitionAbortReasons: make(map[string]int),
	}

	// The WAN layer compiles the profile into per-directed-link chaos
	// overrides, deterministically from the epoch's chaos seed — the
	// same seed that reruns the epoch recompiles the same link matrix.
	var wan *geo.Compiled
	if cfg.WANProfile != "" {
		p, err := geo.Lookup(cfg.WANProfile)
		if err != nil {
			return nil, nil, 0, err
		}
		wan, err = geo.Compile(p, base.Sites, chaosCfg.Seed)
		if err != nil {
			return nil, nil, 0, err
		}
		// The profile owns latency, jitter and wire cost; the chaos
		// Drop/Dup probabilities still apply on top of every WAN link
		// (a per-link override replaces the globals wholesale, so fold
		// them in here).
		links := make(map[transport.LinkID]transport.LinkChaos, len(wan.Links))
		for id, lc := range wan.Links {
			lc.Drop = chaosCfg.Drop
			lc.Dup = chaosCfg.Dup
			links[id] = lc
		}
		chaosCfg.Links = links
		er.WANProfile = p.Name
		er.WANRegions = wan.String()
		er.WANFingerprint = wan.Fingerprint()
	}

	rng := rand.New(rand.NewSource(chaosCfg.Seed))
	sched, err := failure.Random(failure.RandomConfig{
		Sites:   base.Sites,
		Txns:    cfg.TxnsPerEpoch,
		MaxDown: cfg.MaxDown,
	}, rng)
	if err != nil {
		return nil, nil, 0, err
	}

	// Link faults draw from their own rng so enabling partitions leaves
	// the chaos decision streams and the fail/recover events untouched.
	// They fire ahead of site events at a shared boundary.
	if cfg.Partitions {
		nrng := rand.New(rand.NewSource(netSeed(chaosCfg.Seed)))
		var links failure.Schedule
		if wan != nil {
			// WAN regime: faults are region-sized — whole regions go
			// dark or blackhole one way toward another region.
			links, err = failure.RandomRegional(failure.RegionalConfig{
				Assign: wan.Assignment,
				Names:  wan.Profile.Regions,
				Txns:   cfg.TxnsPerEpoch,
			}, nrng)
		} else {
			links, err = failure.RandomLinks(failure.LinkConfig{
				Sites: base.Sites,
				Txns:  cfg.TxnsPerEpoch,
			}, nrng)
		}
		if err != nil {
			return nil, nil, 0, err
		}
		sched = failure.Merge(links, sched)
		er.NetFingerprint = sched.NetFingerprint(base.Sites)
	}
	for _, e := range sched.Events {
		if e.Kind.Link() {
			er.NetEvents = append(er.NetEvents, e.String())
		} else {
			er.FailEvents = append(er.FailEvents, e.String())
		}
	}
	top := failure.NewTopology(base.Sites)

	fab := fleet
	var c *cluster.Cluster // the in-process wire; nil on the process fabric
	if fab == nil {
		local, closeLocal, err := openLocalFabric(cfg, &chaosCfg, seed, txnBase)
		if err != nil {
			return nil, nil, 0, err
		}
		defer closeLocal()
		fab, c = local, local.Cluster()
	}
	mgr := fab.Manager()
	usesFailLocks := cfg.usesFailLocks()
	scrubOn := cfg.scrubOn()

	// The scrubber heals fail-locked items alongside the workload for the
	// whole epoch; the epilogue waits on it instead of running drain
	// passes. Its copier batches are bounded so a chaotic or partitioned
	// donor path stalls one batch, not the scrub loop.
	var scr *cluster.Scrubber
	if scrubOn {
		scr = cluster.NewScrubber(mgr, cluster.ScrubConfig{
			Rate:        cfg.ScrubRate,
			BatchSize:   cfg.ScrubBatch,
			Interval:    base.AckTimeout,
			ExecTimeout: 10 * base.AckTimeout,
		})
		scr.Start()
		defer scr.Stop()
	}
	kickScrub := func() {
		if scr != nil {
			scr.Kick()
		}
	}

	gen := workload.NewUniform(base.Items, base.MaxOps, chaosCfg.Seed)
	gen.ReadFraction = base.ReadFraction

	// trueUp is the manager's ground truth: which sites it has NOT
	// ordered to fail. Chaos can make sites falsely suspect each other;
	// it cannot change ground truth, which only the managing site's
	// fail/recover orders move.
	trueUp := make([]bool, base.Sites)
	for i := range trueUp {
		trueUp[i] = true
	}
	// deferred marks sites whose scheduled recovery came back blocked —
	// cut off from every donor — and waits for the next heal.
	deferred := make([]bool, base.Sites)

	// settle lets in-flight decision timers (armed 4x the ack timeout
	// after a lost phase-two decision) expire before a topology change,
	// so their sends land in a deterministic topology era and the
	// per-link counters stay reproducible. A WAN profile widens the
	// budget by its propagation floor: a timer's last send still has to
	// cross the slowest link before the era flips. Only the in-process
	// wire loses decisions, so only it has anything to wait out.
	settle := func() {}
	if c != nil {
		settleDelay := 5 * base.AckTimeout
		if wan != nil {
			settleDelay += 2 * wan.MaxBaseDelay()
		}
		settle = func() { time.Sleep(settleDelay) }
	}

	// restart is the schedule's recover order. When a single attempt may
	// decide (once, during a partition episode) a blocked recovery is the
	// caller's to handle; otherwise a blocked handshake — eaten by chaos,
	// or racing a donor still settling its own failure detection — is
	// retried.
	restart := func(id core.SiteID, once bool) error {
		_, err := fab.Restart(id)
		if errors.Is(err, cluster.ErrRecoveryBlocked) && !once {
			// The site is back in existence either way; only the type-1
			// recovery order needs repeating.
			time.Sleep(base.AckTimeout / 2)
			var n int
			n, err = mgr.RecoverWithRetry(id, base.AckTimeout)
			er.RecoveryRetries += 1 + n
		}
		if err != nil {
			return err
		}
		if c == nil {
			er.Restarts++
		}
		trueUp[id] = true
		deferred[id] = false
		kickScrub()
		return nil
	}

	reconcile := func() (cluster.ReconcileReport, error) {
		rep, err := mgr.ReconcileSplitBrain(trueUp, base.AckTimeout)
		if err != nil {
			return rep, err
		}
		if rep.Detected() {
			er.SplitBrains++
		}
		er.DivergentItems += rep.DivergentItems
		er.LocksSet += rep.LocksSet
		er.LocksCleared += rep.LocksCleared
		er.Repairs += rep.Repairs
		return rep, nil
	}

	// Waves are capped so false-suspicion repair still runs at a bounded
	// interval even through an event-free stretch of the schedule.
	waveCap := 1
	if base.ConcurrentTxns > 1 {
		waveCap = 4 * base.ConcurrentTxns
	}
	fp := fnv.New64a()

	for txnNum := 1; txnNum <= cfg.TxnsPerEpoch; {
		for _, e := range sched.EventsBefore(txnNum) {
			switch e.Kind {
			case failure.Fail:
				// A deferred recovery leaves the schedule's model of the
				// up-set ahead of reality; skip failures that would hit
				// an already-down site or empty the up-set.
				if !trueUp[e.Site] || len(upSites(trueUp)) <= 1 {
					er.SkippedFails++
					continue
				}
				if err := fab.Kill(e.Site); err != nil {
					return nil, nil, 0, fmt.Errorf("%s: %w", e, err)
				}
				if c == nil {
					er.Kills++
				}
				trueUp[e.Site] = false
			case failure.Recover:
				if trueUp[e.Site] {
					// Its Fail was skipped; nothing to recover.
					continue
				}
				// During an episode a single attempt decides: a site cut
				// off from every donor reports recovery blocked (§3.2)
				// and waits for the heal.
				inEpisode := top.Active()
				err := restart(e.Site, inEpisode)
				switch {
				case inEpisode && errors.Is(err, cluster.ErrRecoveryBlocked):
					deferred[e.Site] = true
					er.DeferredRecoveries++
				case err != nil:
					return nil, nil, 0, fmt.Errorf("%s: %w", e, err)
				}
			default:
				if chaosCfg.Active() || top.Active() {
					settle()
				}
				top.Drive(c, e)
				if e.Kind != failure.Heal {
					continue
				}
				// Heal time: first complete the recoveries the episode
				// blocked, then compare session vectors and collect the
				// divergence into fail-locks.
				for i, d := range deferred {
					if !d {
						continue
					}
					if err := restart(core.SiteID(i), false); err != nil {
						return nil, nil, 0, fmt.Errorf("deferred recover %d before txn %d: %w", i, txnNum, err)
					}
				}
				if _, err := reconcile(); err != nil {
					return nil, nil, 0, fmt.Errorf("reconcile before txn %d: %w", txnNum, err)
				}
			}
		}

		// Wave: the longest run of transactions before the next schedule
		// event (capped at waveCap). Serial mode issues waves of one,
		// preserving the paper's one-at-a-time processing; concurrent
		// mode executes the wave interleaved through the open-loop
		// driver, with a barrier at the wave end so every fail, recover
		// and partition event lands on a write-quiescent system (the
		// documented constraint for concurrent-mode recovery).
		waveEnd := txnNum
		for waveEnd-txnNum+1 < waveCap && waveEnd+1 <= cfg.TxnsPerEpoch && len(sched.EventsBefore(waveEnd+1)) == 0 {
			waveEnd++
		}
		wave := make([]soakIssue, 0, waveEnd-txnNum+1)
		for n := txnNum; n <= waveEnd; n++ {
			id := mgr.NextTxnID()
			iss := soakIssue{num: n, id: id, coord: pickCoordinator(trueUp, n), ops: gen.Next(id)}
			wave = append(wave, iss)
			// Transaction IDs, coordinators and operations are all pure
			// functions of (seed, schedule) — fingerprint the issued
			// stream as the reproducibility witness that stays
			// bit-identical even when outcomes race in concurrent mode.
			fmt.Fprintf(fp, "%d/%d@%d:", iss.num, iss.id, iss.coord)
			for _, op := range iss.ops {
				fmt.Fprintf(fp, "%d,%d,%x;", op.Kind, op.Item, op.Value)
			}
		}
		outs, err := execIssues(mgr, wave, base.ConcurrentTxns, cfg.ArrivalRate)
		if err != nil {
			return nil, nil, 0, err
		}

		inPartition := top.Active()
		for _, out := range outs {
			er.Txns++
			if inPartition {
				er.PartitionTxns++
			}
			if out.Committed {
				er.Committed++
			} else {
				er.Aborted++
				er.AbortReasons[out.AbortReason]++
				if inPartition {
					er.PartitionAborts++
					er.PartitionAbortReasons[out.AbortReason]++
				}
			}
		}
		txnNum = waveEnd + 1

		// Chaos turns lost messages into false failure declarations: a
		// dropped ack and the sender is announced failed system-wide,
		// ostracized by sites that are themselves fine. Repair after
		// every wave (every transaction, in serial mode) so a falsely
		// isolated site gets at most a bounded run of solo divergence
		// before it is rejoined (its writes fail-locked and refreshed
		// through the normal recovery machinery). While an episode is
		// active, suspicion touching a cut site is legitimate network
		// evidence, not a false positive — those pairs wait for heal-time
		// reconciliation.
		var eligible func(observer, suspect core.SiteID) bool
		if inPartition {
			eligible = func(observer, suspect core.SiteID) bool {
				return !top.Affected(observer) && !top.Affected(suspect)
			}
		}
		n, err := mgr.RepairFalseSuspicionsWhere(trueUp, eligible, base.AckTimeout)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("repair after txn %d: %w", waveEnd, err)
		}
		er.Repairs += n
	}
	er.WorkloadFingerprint = fp.Sum64()

	// Epilogue: heal any episode the schedule left active (after letting
	// partition-era decision timers expire into the cut), bring
	// ground-truth-down sites back, and clear remaining false suspicions.
	if top.Active() {
		settle()
		top.HealAll(c)
	}
	for i, isUp := range trueUp {
		if !isUp {
			if err := restart(core.SiteID(i), false); err != nil {
				return nil, nil, 0, fmt.Errorf("final recover %d: %w", i, err)
			}
		}
	}
	n, err := mgr.RepairFalseSuspicions(trueUp, base.AckTimeout)
	if err != nil {
		return nil, nil, 0, err
	}
	er.Repairs += n
	settle()
	if n, err = mgr.RepairFalseSuspicions(trueUp, base.AckTimeout); err != nil {
		return nil, nil, 0, err
	}
	er.Repairs += n

	// Final reconciliation folds in whatever the late recoveries
	// surfaced (a site that solo-committed during a cut and then failed
	// hides its versions until it is back up).
	if cfg.Partitions {
		if _, err := reconcile(); err != nil {
			return nil, nil, 0, fmt.Errorf("epilogue reconcile: %w", err)
		}
	}
	// Stores that outlive the epoch (WAL carry in-process; always, on a
	// process fleet) must be drained: the next epoch's fail-lock tables
	// would otherwise have untracked stale on-disk copies to miss.
	persistent := cfg.WALDir != "" || c == nil
	// Then heal, reconcile, and go again if reconciliation had to re-lock
	// anything: a clear fan-out eaten by a chaotic link — or cut short by
	// a SIGKILL mid-flight — leaves a stray bit in one table that neither
	// the scrubber's status scan nor the drain's per-site count can see,
	// and reconciliation re-derives every table from the copies over the
	// reliable manager links. Continuous heal waits for the scrubber to
	// grind the truly-up fail-locks to zero; otherwise the drain runs the
	// copier transactions itself.
	var heal func() (clean bool, err error)
	switch {
	case scrubOn:
		heal = func() (bool, error) {
			scr.Kick()
			return scr.WaitClean(60 * base.AckTimeout), nil
		}
	case (cfg.Partitions || persistent) && usesFailLocks:
		heal = func() (bool, error) {
			copiers, remaining, err := mgr.DrainFailLocks(trueUp, base.MaxOps)
			er.DrainCopiers += copiers
			er.LocksAfterDrain = remaining
			return remaining == 0, err
		}
	}
	healStart := time.Now()
	for pass := 0; heal != nil && pass < 3; pass++ {
		clean, err := heal()
		if err != nil {
			return nil, nil, 0, fmt.Errorf("heal: %w", err)
		}
		rep, err := reconcile()
		if err != nil {
			return nil, nil, 0, fmt.Errorf("post-heal reconcile: %w", err)
		}
		if clean && rep.LocksSet == 0 {
			break
		}
	}
	if scrubOn {
		er.HealTime = time.Since(healStart)
		if er.LocksAfterDrain, err = mgr.FailLocksRemaining(trueUp, 0); err != nil {
			return nil, nil, 0, fmt.Errorf("scrub-heal count: %w", err)
		}
		// Stop before the audit so no scrub batch races the final copy
		// comparison.
		scr.Stop()
		st := scr.Stats()
		er.ScrubPasses = st.Passes
		er.ScrubItems = st.ItemsScrubbed
		er.ScrubCopiers = st.Copiers
	}

	report, err := mgr.Audit()
	if err != nil {
		return nil, nil, 0, err
	}
	er.AuditOK = report.OK() && er.LocksAfterDrain == 0
	if !er.AuditOK {
		er.AuditDetail = report.String()
		if er.LocksAfterDrain > 0 {
			er.AuditDetail = fmt.Sprintf("%s; %d fail-locks undrained at epoch end", er.AuditDetail, er.LocksAfterDrain)
		}
	}
	var pct *PercentileReport
	if c != nil {
		pct = CollectPercentiles(c)
		er.Chaos = c.ChaosStats()
	}
	return er, pct, mgr.LastTxnID(), nil
}

// upSites lists the ground-truth-up sites.
func upSites(trueUp []bool) []core.SiteID {
	var ups []core.SiteID
	for i, u := range trueUp {
		if u {
			ups = append(ups, core.SiteID(i))
		}
	}
	return ups
}

// pickCoordinator round-robins over the truly-up sites, matching the
// paper's "transactions were processed on both sites" (§3.1).
func pickCoordinator(trueUp []bool, txnNum int) core.SiteID {
	ups := upSites(trueUp)
	return ups[(txnNum-1)%len(ups)]
}
