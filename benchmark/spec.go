package main

import (
	"fmt"
	"time"
)

// Spec is one workload: a deployment shape, a traffic mix and a failure
// schedule. Everything here is frozen — the numbers a later change is
// compared against were measured with exactly these values — and only the
// transaction stream depends on the seed.
type Spec struct {
	Name string

	Sites, Items     int
	MaxOps, WritePct int

	// Concurrent is site.Config.ConcurrentTxns; 0 keeps the paper's
	// serial processing.
	Concurrent int
	// Procs is GOMAXPROCS for the run; 0 leaves it at the machine's
	// processor count. The two workloads that cannot keep two processors
	// busy run on one: with a second, mostly idle processor the Go
	// scheduler's spinning and cross-thread wake-ups double the cost of
	// a serial transaction and make CPU per transaction swing by half
	// between runs (see README.md, "One processor or two").
	Procs int
	// WAL puts every site on a group-commit write-ahead-logged store
	// (storage.OpenWAL; see deployment.walOptions for why it does not
	// fsync).
	WAL bool
	// WAN names an internal/geo profile compiled to per-link chaos.
	WAN string
	// CommitEpoch is site.Config.CommitEpoch.
	CommitEpoch time.Duration

	// AckTimeout is half a second on every workload. The sandbox the
	// baseline was taken in freezes a running thread for 100 to 200 ms a
	// few times a minute; a site that is frozen with a fan-out in flight
	// finds the reply and the expired timer side by side when it wakes,
	// and takes the timer half the time: a live site announced as failed.
	// The timeout has to outlast the host's stalls, and it sets nothing
	// but the length of the outage (see README.md, "Fail/recover cycles
	// that go wrong").
	AckTimeout     time.Duration
	LockWaitBudget time.Duration

	// Clients is the closed-loop client count; the open loop's pool has
	// workersPerClient times as many workers.
	Clients int
	// OpenRate is the open-loop arrival rate per second, a fixed share of
	// the closed-loop committed rate of the commit that defined the
	// benchmark (see README.md, "What one run does"). Zero means the
	// workload has no traffic phases and is fail/recover cycles only.
	OpenRate float64
	// Warmup is the fixed transaction count run before measuring; it is
	// part of setup_s.
	Warmup int

	// Steady and Degraded are the transaction counts of the two segments
	// of one fail/recover cycle. The steady segment is where a workload
	// without traffic phases gets its throughput and latencies; the
	// others leave it out.
	Steady, Degraded int
}

// stream is the workload's transaction stream for a seed.
func (s Spec) stream(seed uint64) *Stream {
	return &Stream{Seed: seed, Items: s.Items, Sites: s.Sites, MaxOps: s.MaxOps, WritePct: s.WritePct}
}

// cyclesOnly reports whether the workload is fail/recover cycles only: the
// paper's regime. Its cycles begin with a steady segment, where it gets
// its throughput and latencies, and are audited one by one.
func (s Spec) cyclesOnly() bool { return s.OpenRate == 0 }

// closedShare, openShare and cycleShare split the measured time of a
// workload with traffic phases between the closed phase, the open phase
// and the cycles.
const closedShare, openShare, cycleShare = 0.3, 0.25, 0.45

// workersPerClient sizes the open loop's pool: enough workers that an
// arrival waits for one only when the system is backlogged.
const workersPerClient = 4

// wanSeed fixes the compiled WAN link matrix: geo.Compile skews every
// directed link by a seeded factor of up to 25 %, so compiling from the
// run's seed would give every seed a different network.
const wanSeed = 1988

var specs = []Spec{
	{
		Name: "lan-mem", Sites: 4, Items: 100_000, MaxOps: 5, WritePct: 50,
		Concurrent: 8, AckTimeout: 500 * time.Millisecond, LockWaitBudget: 25 * time.Millisecond,
		Clients: 8, OpenRate: 9000, Warmup: 20_000,
		Degraded: 5000,
	},
	{
		Name: "lan-wal", Sites: 4, Items: 100_000, MaxOps: 5, WritePct: 50,
		Concurrent: 8, WAL: true,
		AckTimeout: 500 * time.Millisecond, LockWaitBudget: 25 * time.Millisecond,
		Clients: 8, OpenRate: 5000, Warmup: 10_000,
		Degraded: 5000,
	},
	{
		Name: "wan3-epoch", Sites: 6, Items: 20_000, MaxOps: 5, WritePct: 50,
		Concurrent: 8, Procs: 1, WAN: "wan3", CommitEpoch: 2 * time.Millisecond,
		AckTimeout: 500 * time.Millisecond, LockWaitBudget: 100 * time.Millisecond,
		Clients: 32, OpenRate: 1300, Warmup: 1000,
		Degraded: 400,
	},
	{
		Name: "failrec", Sites: 4, Items: 20_000, MaxOps: 10, WritePct: 50,
		Procs: 1, AckTimeout: 500 * time.Millisecond,
		Clients: 1, Warmup: 2000,
		Steady: 2000, Degraded: 2000,
	},
}

func specByName(name string) (Spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown workload %q", name)
}
