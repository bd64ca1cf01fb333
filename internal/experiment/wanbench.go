package experiment

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"minraid/internal/geo"
)

// WANBenchConfig parameterizes the geo-replication commit bench: the same
// seeded workload run twice over the same compiled WAN link matrix, once
// with per-transaction ROWAA commit and once with epoch-batched commit,
// both interleaved at the same degree over durably-logged stores.
type WANBenchConfig struct {
	// Base supplies sites, items and timeouts. Zero sites defaults to 6
	// (two per wan3 region); zero AckTimeout defaults to 2s to keep the
	// failure detector out of the measurement.
	Base Config
	// Profile names the WAN shape (internal/geo); default "wan3".
	Profile string
	// Txns is the workload length of each pass (default 200).
	Txns int
	// Concurrency is the per-site interleaving degree of both passes
	// (default 8).
	Concurrency int
	// Rate, when positive, paces both passes open-loop at this many
	// transactions per second (latency from scheduled arrival). Zero
	// runs unpaced for a peak-throughput comparison.
	Rate float64
	// CommitEpoch is the epoch length of the batched pass (default 2ms;
	// must stay under Base.AckTimeout).
	CommitEpoch time.Duration
	// LockWaitBudget bounds per-site lock waits (default 100ms — WAN
	// prepare round trips hold locks for several milliseconds, so the
	// LAN bench's tight budget would abort healthy transactions).
	LockWaitBudget time.Duration
	// WALDir is where each pass puts its write-ahead-logged stores;
	// empty uses a temporary directory removed afterwards.
	WALDir string
}

func (c WANBenchConfig) withDefaults() WANBenchConfig {
	if c.Base.AckTimeout == 0 {
		c.Base.AckTimeout = 2 * time.Second
	}
	// 256 items keeps write-write conflict (and with it the cross-site
	// deadlocks that resolve only by lock timeout) rare enough that the
	// comparison measures the commit protocol, not the deadlock detector.
	c.Base = c.Base.withDefaults(6, 256, 5)
	if c.Profile == "" {
		c.Profile = "wan3"
	}
	if c.Txns == 0 {
		c.Txns = 200
	}
	if c.Concurrency == 0 {
		c.Concurrency = 8
	}
	if c.CommitEpoch == 0 {
		c.CommitEpoch = 2 * time.Millisecond
	}
	if c.LockWaitBudget == 0 {
		c.LockWaitBudget = 100 * time.Millisecond
	}
	return c
}

// WANBenchReport is the machine-readable result of one WAN bench run —
// the BENCH_wan.json schema. Both passes replay the identical seeded
// transaction stream over the identical compiled link matrix; the only
// difference is the commit protocol.
type WANBenchReport struct {
	Schema         string  `json:"schema"` // "minraid/bench_wan/v1"
	Seed           int64   `json:"seed"`
	Sites          int     `json:"sites"`
	Items          int     `json:"items"`
	MaxOps         int     `json:"max_ops"`
	Profile        string  `json:"profile"`
	Regions        string  `json:"regions"`
	WANFingerprint uint64  `json:"wan_fingerprint"`
	Concurrency    int     `json:"concurrency"`
	CommitEpochMs  float64 `json:"commit_epoch_ms"`
	RateTxnPerSec  float64 `json:"rate_txn_per_sec"` // 0 = unpaced
	LatencySource  string  `json:"latency_source"`
	// ROWAA is the per-transaction commit pass, Epoch the batched one.
	ROWAA *BenchMode `json:"rowaa"`
	Epoch *BenchMode `json:"epoch"`
	// SpeedupX is epoch committed ops/sec over rowaa committed ops/sec.
	SpeedupX float64 `json:"speedup_x"`
}

// String renders the human-readable summary.
func (r *WANBenchReport) String() string {
	var b strings.Builder
	txns := 0
	if r.ROWAA != nil {
		txns = r.ROWAA.Txns
	} else if r.Epoch != nil {
		txns = r.Epoch.Txns
	}
	fmt.Fprintf(&b, "WAN bench: %s (%s), %d txns, %d sites, %d items, seed %d, degree %d, epoch %.1fms",
		r.Profile, r.Regions, txns, r.Sites, r.Items, r.Seed, r.Concurrency, r.CommitEpochMs)
	if r.RateTxnPerSec > 0 {
		fmt.Fprintf(&b, ", open-loop %.0f txn/s", r.RateTxnPerSec)
	}
	fmt.Fprintf(&b, "\n  %-24s %10s %10s %8s %8s %8s %8s\n",
		"commit mode", "committed", "txn/s", "p50", "p95", "p99", "aborted")
	for _, m := range []*BenchMode{r.ROWAA, r.Epoch} {
		if m == nil {
			continue
		}
		fmt.Fprintf(&b, "  %-24s %10d %10.1f %7.1fm %7.1fm %7.1fm %8d\n",
			m.Mode, m.Committed, m.OpsPerSec, m.P50Ms, m.P95Ms, m.P99Ms, m.Aborted)
	}
	if r.ROWAA != nil && r.Epoch != nil {
		fmt.Fprintf(&b, "  speedup: %.2fx (latency source: %s)\n", r.SpeedupX, r.LatencySource)
	}
	return b.String()
}

// RunWANBench compiles the profile once from the seed and runs the two
// passes over identical link matrices and identical pre-generated
// transaction streams, so the comparison isolates the commit protocol:
// per-transaction ROWAA fan-out versus epoch-batched fan-out.
func RunWANBench(cfg WANBenchConfig) (*WANBenchReport, error) {
	return runWANBench(cfg, true, true)
}

// RunWANBenchOne runs a single commit-mode pass ("rowaa" or "epoch") of
// the same seeded workload — the other mode's slot in the report stays
// nil, for callers that merge two separate invocations into one file.
func RunWANBenchOne(cfg WANBenchConfig, mode string) (*WANBenchReport, error) {
	switch mode {
	case "rowaa":
		return runWANBench(cfg, true, false)
	case "epoch":
		return runWANBench(cfg, false, true)
	}
	return nil, fmt.Errorf("experiment: unknown commit mode %q (want rowaa or epoch)", mode)
}

func runWANBench(cfg WANBenchConfig, doROWAA, doEpoch bool) (*WANBenchReport, error) {
	cfg = cfg.withDefaults()
	if cfg.CommitEpoch >= cfg.Base.AckTimeout {
		return nil, fmt.Errorf("experiment: commit epoch %v must stay under the ack timeout %v", cfg.CommitEpoch, cfg.Base.AckTimeout)
	}
	p, err := geo.Lookup(cfg.Profile)
	if err != nil {
		return nil, err
	}
	wan, err := geo.Compile(p, cfg.Base.Sites, cfg.Base.Seed)
	if err != nil {
		return nil, err
	}
	dir, cleanup, err := dirOrTemp(cfg.WALDir, "raid-wanbench-")
	if err != nil {
		return nil, err
	}
	defer cleanup()

	report := &WANBenchReport{
		Schema:         "minraid/bench_wan/v1",
		Seed:           cfg.Base.Seed,
		Sites:          cfg.Base.Sites,
		Items:          cfg.Base.Items,
		MaxOps:         cfg.Base.MaxOps,
		Profile:        wan.Profile.Name,
		Regions:        wan.String(),
		WANFingerprint: wan.Fingerprint(),
		Concurrency:    cfg.Concurrency,
		CommitEpochMs:  float64(cfg.CommitEpoch) / float64(time.Millisecond),
		RateTxnPerSec:  cfg.Rate,
		LatencySource:  latencySource(cfg.Rate),
	}

	// Both passes: the compiled WAN link matrix as the wire, group-commit
	// stores, the configured degree. The commit epoch is the one
	// difference — zero runs stock per-transaction ROWAA commit.
	pass := func(mode string, commitEpoch time.Duration) (*BenchMode, error) {
		return runBenchPass(cfg.Base, benchPass{
			Mode: mode, Dir: filepath.Join(dir, mode), Txns: cfg.Txns,
			Degree: cfg.Concurrency, Rate: cfg.Rate, LockWaitBudget: cfg.LockWaitBudget,
			GroupCommit: true, WAN: wan, CommitEpoch: commitEpoch,
		})
	}
	if doROWAA {
		if report.ROWAA, err = pass("rowaa", 0); err != nil {
			return nil, fmt.Errorf("experiment: wan bench rowaa pass: %w", err)
		}
	}
	if doEpoch {
		if report.Epoch, err = pass("epoch", cfg.CommitEpoch); err != nil {
			return nil, fmt.Errorf("experiment: wan bench epoch pass: %w", err)
		}
	}
	if report.ROWAA != nil && report.Epoch != nil && report.ROWAA.OpsPerSec > 0 {
		report.SpeedupX = report.Epoch.OpsPerSec / report.ROWAA.OpsPerSec
	}
	return report, nil
}
