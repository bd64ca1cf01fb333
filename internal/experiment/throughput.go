package experiment

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"minraid/internal/cluster"
	"minraid/internal/core"
	"minraid/internal/geo"
	"minraid/internal/storage"
	"minraid/internal/transport"
	"minraid/internal/workload"
)

// SoakBenchConfig parameterizes the serial-vs-concurrent throughput bench:
// the same seeded workload run twice against durably-logged stores, once
// with the paper's serial processing (one transaction at a time, one fsync
// per applied write) and once interleaved with group commit (concurrent
// transactions, batched fsyncs).
type SoakBenchConfig struct {
	// Base supplies sites, items, delay and timeouts. A zero Delay gets
	// 500us: with no message cost at all the protocol is pure CPU and a
	// single-core host shows no interleaving win to measure.
	Base Config
	// Txns is the workload length of each pass (default 200).
	Txns int
	// Concurrency is the per-site degree of the concurrent pass
	// (default 8).
	Concurrency int
	// Rate, when positive, paces the concurrent pass open-loop at this
	// many transactions per second and reports latency from scheduled
	// arrival (queueing included — the coordinated-omission-aware view).
	// Zero runs both passes unpaced for a peak-throughput comparison and
	// reports per-transaction service latency instead.
	Rate float64
	// LockWaitBudget bounds per-site lock waits (default 25ms). Short is
	// right here: replicated writes from different coordinators acquire
	// the same item's copies in different site orders, and the resulting
	// cross-site deadlocks are invisible to per-site detection — they
	// resolve only by this timeout, so every extra millisecond of budget
	// is a millisecond the deadlocked pair stalls the lock queues.
	LockWaitBudget time.Duration
	// WALDir is where each pass puts its write-ahead-logged stores; empty
	// uses a temporary directory removed afterwards.
	WALDir string
}

func (c SoakBenchConfig) withDefaults() SoakBenchConfig {
	// The bench injects no faults, so failure detection is pure downside:
	// under load a participant's lock wait plus scheduling delay can
	// exceed a tight ack deadline, and the coordinator would falsely
	// declare a perfectly healthy site failed mid-bench. A generous
	// timeout keeps the detector out of the measurement.
	if c.Base.AckTimeout == 0 {
		c.Base.AckTimeout = 2 * time.Second
	}
	c.Base = c.Base.withDefaults(4, 64, 5)
	if c.Base.Delay == 0 {
		c.Base.Delay = 500 * time.Microsecond
	}
	if c.Txns == 0 {
		c.Txns = 200
	}
	if c.Concurrency == 0 {
		c.Concurrency = 8
	}
	if c.Base.ReplicationDegree > 0 && c.Base.ReplicationDegree < c.Base.Sites {
		// Partial replication runs serially (remote donor reads are not
		// covered by distributed 2PL), so the second pass degenerates to
		// serial-with-group-commit: the bench then isolates the fsync
		// batching win instead of the interleaving win.
		c.Concurrency = 1
	}
	if c.LockWaitBudget == 0 {
		c.LockWaitBudget = 25 * time.Millisecond
	}
	return c
}

// BenchMode is one pass of the bench in BENCH_soak.json.
type BenchMode struct {
	Mode         string         `json:"mode"` // "serial" or "concurrent"
	Concurrency  int            `json:"concurrency"`
	GroupCommit  bool           `json:"group_commit"`
	Txns         int            `json:"txns"`
	Committed    int            `json:"committed"`
	Aborted      int            `json:"aborted"`
	AbortReasons map[string]int `json:"abort_reasons,omitempty"`
	ElapsedMs    float64        `json:"elapsed_ms"`
	OpsPerSec    float64        `json:"ops_per_sec"`
	P50Ms        float64        `json:"p50_ms"`
	P95Ms        float64        `json:"p95_ms"`
	P99Ms        float64        `json:"p99_ms"`
}

// BenchReport is the machine-readable result of one bench run — the
// BENCH_soak.json schema. Latencies are in milliseconds; LatencySource
// says what they measure: "service" (from actual issue, unpaced peak run)
// or "scheduled-arrival" (from the open-loop arrival clock, paced run).
type BenchReport struct {
	Schema        string     `json:"schema"` // "minraid/bench_soak/v1"
	Seed          int64      `json:"seed"`
	Sites         int        `json:"sites"`
	Items         int        `json:"items"`
	MaxOps        int        `json:"max_ops"`
	DelayMs       float64    `json:"delay_ms"`
	RateTxnPerSec float64    `json:"rate_txn_per_sec"` // 0 = unpaced
	LatencySource string     `json:"latency_source"`
	Serial        *BenchMode `json:"serial"`
	Concurrent    *BenchMode `json:"concurrent"`
	// SpeedupX is concurrent ops/sec over serial ops/sec.
	SpeedupX float64 `json:"speedup_x"`
}

// String renders the human-readable summary.
func (r *BenchReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Soak bench: %d txns, %d sites, %d items, delay %.1fms, seed %d",
		r.Serial.Txns, r.Sites, r.Items, r.DelayMs, r.Seed)
	if r.RateTxnPerSec > 0 {
		fmt.Fprintf(&b, ", open-loop %.0f txn/s", r.RateTxnPerSec)
	}
	fmt.Fprintf(&b, "\n  %-36s %10s %10s %8s %8s %8s %8s\n",
		"mode", "committed", "txn/s", "p50", "p95", "p99", "aborted")
	for _, m := range []*BenchMode{r.Serial, r.Concurrent} {
		name := m.Mode
		if m.GroupCommit {
			name += "+group-commit"
		}
		fmt.Fprintf(&b, "  %-36s %10d %10.1f %7.1fm %7.1fm %7.1fm %8d\n",
			fmt.Sprintf("%s (degree %d)", name, m.Concurrency),
			m.Committed, m.OpsPerSec, m.P50Ms, m.P95Ms, m.P99Ms, m.Aborted)
	}
	fmt.Fprintf(&b, "  speedup: %.2fx (latency source: %s)\n", r.SpeedupX, r.LatencySource)
	return b.String()
}

// RunSoakBench runs the two passes and assembles the report. Both passes
// replay the identical pre-generated transaction stream (IDs, coordinators
// and operations fixed up front from the seed), so the comparison isolates
// the execution regime: serial processing with per-write fsync versus
// interleaved execution with group commit.
func RunSoakBench(cfg SoakBenchConfig) (*BenchReport, error) {
	cfg = cfg.withDefaults()
	dir, cleanup, err := dirOrTemp(cfg.WALDir, "raid-bench-")
	if err != nil {
		return nil, err
	}
	defer cleanup()

	report := &BenchReport{
		Schema:        "minraid/bench_soak/v1",
		Seed:          cfg.Base.Seed,
		Sites:         cfg.Base.Sites,
		Items:         cfg.Base.Items,
		MaxOps:        cfg.Base.MaxOps,
		DelayMs:       float64(cfg.Base.Delay) / float64(time.Millisecond),
		RateTxnPerSec: cfg.Rate,
		LatencySource: latencySource(cfg.Rate),
	}
	pass := func(name string, degree int, groupCommit bool) (*BenchMode, error) {
		p := benchPass{
			Mode: "serial", Dir: filepath.Join(dir, name), Txns: cfg.Txns,
			Degree: degree, Rate: cfg.Rate, LockWaitBudget: cfg.LockWaitBudget,
			GroupCommit: groupCommit,
		}
		if degree > 1 {
			p.Mode = "concurrent"
		}
		return runBenchPass(cfg.Base, p)
	}
	if report.Serial, err = pass("serial", 1, false); err != nil {
		return nil, fmt.Errorf("experiment: bench serial pass: %w", err)
	}
	if report.Concurrent, err = pass("concurrent", cfg.Concurrency, true); err != nil {
		return nil, fmt.Errorf("experiment: bench concurrent pass: %w", err)
	}
	if report.Serial.OpsPerSec > 0 {
		report.SpeedupX = report.Concurrent.OpsPerSec / report.Serial.OpsPerSec
	}
	return report, nil
}

// latencySource names what a bench's latencies measure at this pacing.
func latencySource(rate float64) string {
	if rate > 0 {
		return "scheduled-arrival"
	}
	return "service"
}

// benchPass is one pass of either bench: what distinguishes it from the
// other pass over the same seeded transaction stream.
type benchPass struct {
	// Mode labels the pass in the report; Dir holds its WAL stores.
	Mode, Dir string
	Txns      int
	// Degree is the per-site interleaving degree and the driver's
	// in-flight bound (1: the paper's serial processing); Rate paces the
	// driver open-loop when positive.
	Degree         int
	Rate           float64
	LockWaitBudget time.Duration
	// GroupCommit batches the stores' fsyncs (Sync is always on).
	GroupCommit bool
	// WAN, when non-nil, replaces the flat per-hop delay with the compiled
	// link matrix (latency and wire cost only: no drops, no dups).
	WAN *geo.Compiled
	// CommitEpoch, when positive, enables the epoch batcher.
	CommitEpoch time.Duration
}

// runBenchPass runs one pass: a fresh cluster over durably-logged stores,
// the pre-generated stream executed at the pass's in-flight bound, then a
// consistency audit the pass must clear before its throughput means
// anything.
func runBenchPass(base Config, p benchPass) (*BenchMode, error) {
	ccfg := base.clusterConfig()
	if p.Degree > 1 {
		ccfg.ConcurrentTxns = p.Degree
	}
	ccfg.LockWaitBudget = p.LockWaitBudget
	ccfg.CommitEpoch = p.CommitEpoch
	if p.WAN != nil {
		ccfg.Chaos = &transport.ChaosConfig{Seed: base.Seed, Links: p.WAN.Links, ExemptManager: true}
	}
	var closeStores func()
	ccfg.StoreFactory, closeStores = walStoreFactory(p.Dir, storage.WALOptions{
		Items:       base.Items,
		Sync:        true,
		GroupCommit: p.GroupCommit,
	})
	defer closeStores()
	c, err := cluster.New(ccfg)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	// Pre-generate the stream so both passes issue bit-identical work:
	// IDs are allocated serially here, not inside the racing closures.
	gen := workload.NewUniform(base.Items, base.MaxOps, base.Seed)
	gen.ReadFraction = base.ReadFraction
	issues := make([]soakIssue, p.Txns)
	for i := range issues {
		id := c.NextTxnID()
		issues[i] = soakIssue{
			num:   i + 1,
			id:    id,
			coord: core.SiteID(i % base.Sites),
			ops:   gen.Next(id),
		}
	}
	run, err := execIssues(c.Manager, issues, p.Degree, p.Rate)
	if err != nil {
		return nil, err
	}

	mode := &BenchMode{
		Mode:         p.Mode,
		Concurrency:  p.Degree,
		GroupCommit:  p.GroupCommit,
		Txns:         p.Txns,
		AbortReasons: make(map[string]int),
	}
	for _, out := range run.outs {
		if out.Committed {
			mode.Committed++
		} else {
			mode.Aborted++
			mode.AbortReasons[out.AbortReason]++
		}
	}
	mode.ElapsedMs = float64(run.loop.Elapsed) / float64(time.Millisecond)
	// Throughput counts committed transactions only: an abort did no
	// durable work, so issued/sec would flatter a pass that thrashes on
	// lock contention.
	mode.OpsPerSec = float64(mode.Committed) / run.loop.Elapsed.Seconds()
	lat := run.service
	if p.Rate > 0 {
		lat = run.loop.Latencies
	}
	mode.P50Ms = pctileMs(lat, 0.50)
	mode.P95Ms = pctileMs(lat, 0.95)
	mode.P99Ms = pctileMs(lat, 0.99)

	// Epoch commit answers the client once the batch fan-out is on the
	// wire; let in-flight CommitBatch deliveries cross the slowest link
	// and apply before comparing copies.
	if p.CommitEpoch > 0 {
		settle := p.CommitEpoch + 200*time.Millisecond
		if p.WAN != nil {
			settle += 2 * p.WAN.MaxBaseDelay()
		}
		time.Sleep(settle)
	}

	// The bench injects no faults, so the pass must leave every replica
	// identical — a correctness gate on the interleaved, batched regimes.
	report, err := c.Audit()
	if err != nil {
		return nil, err
	}
	if !report.OK() || report.StaleCopies != 0 {
		return nil, fmt.Errorf("bench %s pass failed audit: %s", mode.Mode, report)
	}
	return mode, nil
}

// pctileMs is the nearest-rank percentile of a latency sample, in
// milliseconds.
func pctileMs(lat []time.Duration, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := make([]time.Duration, len(lat))
	copy(s, lat)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return float64(s[idx]) / float64(time.Millisecond)
}
