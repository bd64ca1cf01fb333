// Package minraid is a reproduction of the replicated-copy-control system
// of Bhargava, Noll and Sabo, "An Experimental Analysis of Replicated Copy
// Control During Site Failure and Recovery" (Purdue CSD-TR-692, 1987 /
// ICDE 1988): the stripped-down RAID prototype ("mini-RAID") implementing
// the read-one/write-all-available (ROWAA) protocol with session numbers,
// nominal session vectors, fail-locks, control transactions and copier
// transactions.
//
// The package is the public facade over the implementation in internal/:
//
//   - NewCluster builds an in-process system of N database sites plus the
//     managing site, connected by a reliable in-order memory transport
//     with configurable per-hop latency (the paper's setup).
//   - Cluster.Exec drives database transactions; Cluster.Fail and
//     Cluster.Recover script site failures and recoveries; Cluster.Audit
//     verifies cross-site consistency against the fail-lock tables.
//   - Policies ROWAA (the paper's protocol), ROWA and Quorum (baselines)
//     are selected via ClusterConfig.Policy.
//   - The workload, failure-schedule and experiment subpackages reproduce
//     the paper's workload model, scenario scripts, and every table and
//     figure of its evaluation (see EXPERIMENTS.md).
//
// Quickstart:
//
//	c, err := minraid.NewCluster(minraid.ClusterConfig{Sites: 2, Items: 50})
//	if err != nil { ... }
//	defer c.Close()
//	res, err := c.Exec(0, []minraid.Op{minraid.Write(7, []byte("hello"))})
//	_ = c.Fail(1)             // site 1 stops participating
//	res, err = c.Exec(0, ...) // processing continues on site 0
//	_, err = c.Recover(1)     // type-1 control txn; fail-locks installed
package minraid

import (
	"minraid/internal/cluster"
	"minraid/internal/core"
	"minraid/internal/experiment"
	"minraid/internal/failure"
	"minraid/internal/metrics"
	"minraid/internal/msg"
	"minraid/internal/policy"
	"minraid/internal/storage"
	"minraid/internal/trace"
	"minraid/internal/workload"
)

// Identifier and model types.
type (
	// SiteID identifies a database site (0..Sites-1).
	SiteID = core.SiteID
	// ItemID identifies a logical data item.
	ItemID = core.ItemID
	// TxnID identifies a transaction.
	TxnID = core.TxnID
	// Op is one read or write operation of a transaction.
	Op = core.Op
	// ItemVersion is a versioned copy of a data item.
	ItemVersion = core.ItemVersion
	// Status is a site lifecycle state (up, down, recovering,
	// terminating).
	Status = core.Status
	// SessionVector is a nominal session vector.
	SessionVector = core.SessionVector
	// TxnResult is a transaction outcome as reported to the managing
	// site.
	TxnResult = msg.TxnResult
	// SiteStats is a site's counter block.
	SiteStats = msg.SiteStats
	// StatusResp is a site status snapshot.
	StatusResp = msg.StatusResp
	// AuditReport is a cross-site consistency audit result.
	AuditReport = cluster.AuditReport
	// Registry is a metrics registry (timers and counters).
	Registry = metrics.Registry
	// Policy is a replication strategy.
	Policy = policy.Policy
	// Store is a site's local database store.
	Store = storage.Store
	// Generator produces workload transactions.
	Generator = workload.Generator
	// Schedule is a failure/recovery script keyed to transaction
	// numbers.
	Schedule = failure.Schedule
	// TraceID identifies one traced operation. Database transactions
	// trace under their transaction ID; managing-site fail/recover
	// orders trace above AdminTraceBase.
	TraceID = trace.ID
	// TraceEvent is one instrumented step of a traced operation on one
	// site.
	TraceEvent = trace.Event
	// TraceSpan is the chronological event timeline of one trace ID,
	// reconstructed across sites.
	TraceSpan = trace.Span
	// TraceRecorder collects trace events cluster-wide; reach it via
	// Cluster.Tracer().
	TraceRecorder = trace.Recorder
)

// AdminTraceBase is the first trace ID used for managing-site admin
// operations (fail/recover orders).
const AdminTraceBase = trace.AdminBase

// Site states.
const (
	StatusDown        = core.StatusDown
	StatusUp          = core.StatusUp
	StatusRecovering  = core.StatusRecovering
	StatusTerminating = core.StatusTerminating
)

// Read returns a read operation on item.
func Read(item ItemID) Op { return core.Read(item) }

// Write returns a write operation setting item to value.
func Write(item ItemID, value []byte) Op { return core.Write(item, value) }

// Replication policies.

// ROWAA returns the paper's read-one/write-all-available protocol with
// session vectors and fail-locks.
func ROWAA() Policy { return policy.ROWAA{} }

// ROWA returns the strict read-one/write-all baseline: any down site
// blocks every write.
func ROWA() Policy { return policy.ROWA{} }

// Quorum returns the majority-voting baseline with version numbers.
func Quorum() Policy { return policy.Quorum{} }

// ClusterConfig describes an in-process mini-RAID system: the internal
// cluster description itself. The three paper parameters (§1.2) are
// Sites, Items, and the workload generator's maximum transaction size.
type ClusterConfig = cluster.Config

// Cluster is a running mini-RAID system: N database sites plus the
// managing site in one process.
type Cluster = cluster.Cluster

// NewCluster builds and starts a cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// NewMemStore returns an in-memory store of items copies (the paper's
// configuration), each at version 0 with the given initial value.
func NewMemStore(items int, initial []byte) Store {
	return storage.NewMemStore(items, initial)
}

// OpenWALStore opens a durable store backed by an append-only log with
// snapshot compaction in dir — the data-I/O path the paper factored out,
// available for ablation studies.
func OpenWALStore(dir string, items int) (Store, error) {
	return storage.OpenWAL(storage.WALOptions{Dir: dir, Items: items})
}

// Workload generators.

// NewUniformWorkload returns the paper's generator: 1..maxOps operations
// per transaction, equal read/write probability, uniform item choice.
func NewUniformWorkload(items, maxOps int, seed int64) *workload.Uniform {
	return workload.NewUniform(items, maxOps, seed)
}

// NewET1Workload returns a DebitCredit-style generator after the Tandem
// ET1 benchmark the paper planned to adopt.
func NewET1Workload(items int, seed int64) *workload.ET1 {
	return workload.NewET1(items, seed)
}

// NewWisconsinWorkload returns a Wisconsin-style scan/update generator.
func NewWisconsinWorkload(items int, seed int64) *workload.Wisconsin {
	return workload.NewWisconsin(items, seed)
}

// NewHotColdWorkload returns a skewed generator (80% of operations on the
// hot set).
func NewHotColdWorkload(items, hotItems, maxOps int, seed int64) *workload.HotCold {
	return workload.NewHotCold(items, hotItems, maxOps, seed)
}

// Failure schedules for the paper's experiments.

// Figure1Schedule is experiment 2's script: site 0 down for transactions
// 1-100, then recovering until all fail-locks clear (capTxns bounds the
// run).
func Figure1Schedule(capTxns int) Schedule { return failure.Figure1(capTxns) }

// Scenario1Schedule is experiment 3 scenario 1 (2 sites, alternating
// failures, 120 transactions).
func Scenario1Schedule() Schedule { return failure.Scenario1() }

// Scenario2Schedule is experiment 3 scenario 2 (4 sites, rolling single
// failures, 160 transactions).
func Scenario2Schedule() Schedule { return failure.Scenario2() }

// Experiments. The paper's tables and figures are reproduced by
// `raid-experiments -run e1|f1|f2|f3`; see DESIGN.md's experiment index and
// EXPERIMENTS.md for a captured run.
type (
	// ExperimentConfig parameterizes the experiment harness.
	ExperimentConfig = experiment.Config
	// ScheduleResult is the outcome of driving one failure schedule.
	ScheduleResult = experiment.ScheduleResult
)

// RunSchedule drives an arbitrary failure schedule with the paper's
// workload and returns per-transaction fail-lock series and abort
// accounting.
func RunSchedule(cfg ExperimentConfig, sched Schedule, capTxns int) (*ScheduleResult, error) {
	return experiment.RunSchedule(cfg, sched, capTxns)
}
