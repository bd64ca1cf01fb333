// Package site implements a mini-RAID database site: one event loop owning
// a copy of the replicated database, a nominal session vector and a
// fail-lock table, acting as two-phase-commit coordinator or participant,
// running copier and control transactions, and simulating failure and
// recovery on command from the managing site.
//
// Concurrency model. The paper's sites were single Unix processes handling
// messages serially. Here each site runs:
//
//   - one receive loop (run) that dispatches inbound messages; participant
//     and control handlers execute inline, in arrival order, which gives
//     the paper's serial, in-order message processing (in concurrent mode a
//     prepare whose locks are not free waits for them on a goroutine of its
//     own: the loop never waits for a lock);
//   - one transaction executor at a time (txnGate), so database
//     transactions are serialized exactly as in the paper ("transactions
//     were processed serially", §1.2, assumption 2);
//   - coordinator work in its own goroutine so the receive loop stays free
//     to route acks and serve other sites' requests while this site waits
//     for replies.
//
// All mutable state (vector, fail-locks, staged writes, stats) is guarded
// by mu; the store is internally synchronized. The receive loop itself
// takes no lock per message: the lifecycle state it checks and the inbound
// counter it bumps are atomics.
package site

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"minraid/internal/core"
	"minraid/internal/lockmgr"
	"minraid/internal/metrics"
	"minraid/internal/msg"
	"minraid/internal/policy"
	"minraid/internal/storage"
	"minraid/internal/trace"
	"minraid/internal/transport"
)

// Timer and counter names recorded in the metrics registry. The experiment
// harness reads them to regenerate the paper's tables.
const (
	// TimerCoordTxn is the coordinator-side database transaction time
	// (§2.2.1), for transactions that ran no copier.
	TimerCoordTxn = "txn.coord"
	// TimerCoordTxnCopier is the same measure for transactions that ran
	// at least one copier transaction (§2.2.3: 270 ms vs 186 ms).
	TimerCoordTxnCopier = "txn.coord.copier"
	// TimerPartTxn is the participant-side transaction time (§2.2.1).
	TimerPartTxn = "txn.part"
	// TimerCtrl1Recovering is the type-1 control transaction time at the
	// recovering site (§2.2.2: 190 ms).
	TimerCtrl1Recovering = "ctrl1.recovering"
	// TimerCtrl1Operational is the type-1 time at an operational site
	// (§2.2.2: 50 ms).
	TimerCtrl1Operational = "ctrl1.operational"
	// TimerCtrl2 is the type-2 control transaction time per announced-to
	// site (§2.2.2: 68 ms).
	TimerCtrl2 = "ctrl2"
	// TimerCtrl2Fanout is the wall time of one whole type-2 announcement
	// fan-out: every target contacted in parallel under a single shared
	// ack deadline, so k unresponsive targets cost ~1 timeout, not k.
	TimerCtrl2Fanout = "ctrl2.fanout"
	// TimerCopyServe is the donor-side copy-request service time
	// (§2.2.3: 25 ms).
	TimerCopyServe = "copy.serve"
	// TimerClearFailLocks is the coordinator-side cost of the special
	// fail-lock-clearing transaction, per contacted site (§2.2.3: 20 ms).
	TimerClearFailLocks = "clear.flock"
	// TimerClearFanout is the wall time of one whole clear-fail-locks
	// fan-out (the special transaction's parallel multicast to every
	// operational site).
	TimerClearFanout = "clear.flock.fanout"
	// TimerCtrl3 is the type-3 (backup copy) control transaction time.
	TimerCtrl3 = "ctrl3"

	// CounterAborts counts coordinator-side aborts.
	CounterAborts = "aborts"
	// CounterCommits counts coordinator-side commits.
	CounterCommits = "commits"
	// CounterDemandCopiers counts copier transactions issued on the
	// demand path — a database transaction reading a fail-locked local
	// copy (Appendix A.1). With the background scrubber running, demand
	// copiers cover only the reads that outrun it.
	CounterDemandCopiers = "copiers.demand"
	// CounterRecoveryStale counts the items fail-locked for this site at
	// the moment each recovery completed — the stale set the site serves
	// through demand copiers until a heal refreshes it (the managing
	// site's heal step, run as a drain, a two-step batch or by the
	// background scrubber).
	CounterRecoveryStale = "recovery.stale"
)

// Config parameterizes a site.
type Config struct {
	// ID is this site's identity (0..Sites-1).
	ID core.SiteID
	// Sites is the number of database sites in the system.
	Sites int
	// Items is the database size ("the number of data items", §1.2).
	Items int
	// Policy selects the replication protocol; nil means ROWAA.
	Policy policy.Policy
	// Store holds the local database copy; nil means an in-memory store
	// (the paper's configuration).
	Store storage.Store
	// AckTimeout bounds every wait for a remote reply; expiry is treated
	// as failure of the callee. Default 250ms.
	AckTimeout time.Duration
	// DisableFailLockMaintenance removes the fail-lock maintenance code
	// path, reproducing the "without fail-locks code" row of the paper's
	// first experiment. Only safe when no site ever fails.
	DisableFailLockMaintenance bool
	// EnableType3 enables the paper's proposed type-3 control
	// transaction: when this site holds the last up-to-date copy of an
	// item among operational sites, it pushes a backup copy to another
	// operational site (§3.2).
	EnableType3 bool
	// Metrics receives timing observations; nil allocates a private
	// registry.
	Metrics *metrics.Registry
	// Tracer receives structured trace events for the protocol phases
	// this site executes. Nil disables tracing (all emit calls are
	// no-ops on a nil recorder).
	Tracer *trace.Recorder
	// Replicas assigns items to hosting sites. Nil means full
	// replication, the paper's assumption 4. Partial replication is
	// supported for the copy-aware policies — ROWAA and quorum. Under
	// ROWAA a coordinator that hosts no copy of a read item fetches a
	// fresh copy from a hosting site, and writes go to the hosting sites
	// (plus maintenance-only notices to the other operational sites,
	// keeping fail-lock tables fully replicated). Under quorum, read and
	// write quorums are sized per item from its hosting degree and only
	// hosting sites' copies vote. ROWA is rejected: write-all over a
	// partial map is write-all-hosts, which is ROWAA without its
	// availability, and supporting it would only blur the baselines.
	//
	// The map is installed copy-on-write: permanent-loss rebalancing
	// (CtrlRehost) swaps in an edited clone, so in-flight operations keep
	// the placement they started with.
	Replicas *core.ReplicaMap
	// ConcurrentTxns enables the full-RAID future-work mode the paper
	// deferred ("we plan to run this protocol ... taking into account
	// other factors such as concurrency control", §5): up to this many
	// transactions execute interleaved at this site, serialized by
	// distributed strict two-phase locking — shared locks on the read
	// set at the coordinator, exclusive locks on every copy of the write
	// set (acquired at prepare), all held until commit or abort. Values
	// of 0 or 1 keep the paper's serial processing (assumption 2).
	// Requires ROWAA and full replication. Deadlock has one rule: every
	// lock request takes its whole set at once, in ascending item order,
	// so no cycle closes inside a site; a cycle across sites ends when a
	// wait exceeds LockWaitBudget (the transaction aborts retriably).
	//
	// Recovery (the type-1 control transaction) should be initiated
	// during a write-quiescent period: session-vector checks abort
	// transactions that straddle a recovery at prepare and at the commit
	// decision, but a recovery announcement still in flight cannot veto
	// a commit already decided, so overlapping writes can leave a
	// freshly installed fail-lock snapshot behind by one transaction.
	// Site failures need no such care — fail-locks exist precisely to
	// absorb them.
	ConcurrentTxns int
	// CommitEpoch enables epoch-batched commit: the coordinator
	// accumulates transactions past their commit decision and flushes the
	// phase-two fan-out once per epoch boundary — one CommitBatch per
	// participant, one WAL group-commit window, commit acks collected off
	// the critical path (see internal/site/epoch.go). Results release at
	// the flush, so client latency gains up to one epoch while the
	// per-transaction WAN fan-out cost collapses. Zero is an epoch of one
	// transaction, retired inline: the paper's per-transaction phase two,
	// acks awaited before the result. Requires ROWAA, and must stay under
	// AckTimeout: a participant's decision timer (4x AckTimeout) must
	// absorb the flush delay without suspecting the coordinator.
	CommitEpoch time.Duration
	// LockWaitBudget bounds how long a concurrent-mode transaction waits
	// for one lock before aborting with a retriable timeout. It is the
	// only deadlock breaker: ordered lock sets rule out cycles inside a
	// site, and this budget ends the cycles that span sites. Zero
	// defaults to AckTimeout/2. It must stay well under AckTimeout: a
	// participant blocked on locks longer than the coordinator's patience
	// would be mistaken for a failed site, and a lock wait must surface
	// as a retriable NACK, never as a spurious type-2 announcement. At
	// higher ConcurrentTxns degrees a larger fraction of AckTimeout (or a
	// larger AckTimeout) reduces spurious contention aborts.
	LockWaitBudget time.Duration
	// StartDown boots the site in the failed state: deaf to everything
	// but managing-site admin traffic until a recover order runs the
	// type-1 control transaction. A raidsrv process restarted after a
	// real crash starts down — its database just replayed from the WAL,
	// but it must rejoin through the ordinary recovery path (new session,
	// fail-lock set from a donor) before serving anything.
	StartDown bool
	// Session is the site's initial session number; zero means 1, the
	// protocol's starting session. A restarted process passes the last
	// persisted session so the recovery bump stays monotone over the
	// site's whole lifetime — survivors' vectors and any in-flight
	// failure announcements carry the pre-crash session, and a recovery
	// announced with a smaller one would be vetoed as stale.
	Session core.SessionNum
	// PersistSession, when non-nil, is called with the new session number
	// at every session bump, before the type-1 announcement goes out. A
	// durable deployment (cmd/raidsrv) writes it next to the WAL so a
	// crash-restart resumes the monotone sequence. An error from the hook
	// aborts the recovery: announcing a session that would be forgotten
	// by the next crash is worse than staying down.
	PersistSession func(core.SessionNum) error
}

// Validate reports whether a site can run this configuration — the rules
// New enforces — after applying New's scalar defaults to a copy. It
// allocates neither store, registry nor replica map, so a deployment can
// vet a spec before any site exists.
func (c Config) Validate() error {
	c.defaultScalars()
	if c.Sites <= 0 || c.Sites > core.MaxSites {
		return fmt.Errorf("site: %d sites out of range", c.Sites)
	}
	if int(c.ID) >= c.Sites {
		return fmt.Errorf("site: id %d out of range for %d sites", c.ID, c.Sites)
	}
	if c.Items <= 0 {
		return fmt.Errorf("site: %d items out of range", c.Items)
	}
	if c.Store != nil && c.Store.Items() != c.Items {
		return fmt.Errorf("site: store holds %d items, config says %d", c.Store.Items(), c.Items)
	}
	if c.LockWaitBudget >= c.AckTimeout {
		return fmt.Errorf("site: lock-wait budget %v must stay under the ack timeout %v (a lock wait must not look like a site failure)", c.LockWaitBudget, c.AckTimeout)
	}
	if c.Replicas != nil && (c.Replicas.Items() != c.Items || c.Replicas.Sites() != c.Sites) {
		return fmt.Errorf("site: replica map is %dx%d, config is %dx%d",
			c.Replicas.Items(), c.Replicas.Sites(), c.Items, c.Sites)
	}
	full := c.Replicas == nil || c.Replicas.IsFull()
	if !full && c.Policy.Name() != "rowaa" && c.Policy.Name() != "quorum" {
		return fmt.Errorf("site: partial replication requires a copy-aware policy (rowaa or quorum), not %s", c.Policy.Name())
	}
	if !full && c.EnableType3 {
		return fmt.Errorf("site: type-3 control transactions require full replication (dynamic replica maps are out of scope)")
	}
	if c.ConcurrentTxns > 1 {
		if c.Policy.Name() != "rowaa" {
			return fmt.Errorf("site: concurrent mode requires the rowaa policy, not %s", c.Policy.Name())
		}
		if !full {
			return fmt.Errorf("site: concurrent mode requires full replication")
		}
	}
	if c.CommitEpoch > 0 {
		if c.Policy.Name() != "rowaa" {
			return fmt.Errorf("site: epoch-batched commit requires the rowaa policy, not %s", c.Policy.Name())
		}
		if c.CommitEpoch >= c.AckTimeout {
			return fmt.Errorf("site: commit epoch %v must stay under the ack timeout %v (a batched commit must not look like a lost coordinator)", c.CommitEpoch, c.AckTimeout)
		}
	}
	return nil
}

// defaultScalars fills the defaults the rules in Validate depend on.
func (c *Config) defaultScalars() {
	if c.Policy == nil {
		c.Policy = policy.ROWAA{}
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 250 * time.Millisecond
	}
	if c.LockWaitBudget <= 0 {
		c.LockWaitBudget = c.AckTimeout / 2
	}
}

func (c *Config) fillDefaults() error {
	if err := c.Validate(); err != nil {
		return err
	}
	c.defaultScalars()
	if c.Store == nil {
		c.Store = storage.NewMemStore(c.Items, nil)
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	if c.Replicas == nil {
		c.Replicas = core.FullReplication(c.Items, c.Sites)
	}
	return nil
}

// stagedTxn is a participant's buffered phase-one state.
type stagedTxn struct {
	writes    []core.ItemVersion
	maintOnly []core.ItemID // fail-lock maintenance without data (partial replication)
	// vector is the coordinator's nominal session vector from the
	// prepare. Commit-time fail-lock maintenance uses it — not the
	// participant's own vector — because the coordinator's view is what
	// decided which sites received this write, i.e. which sites actually
	// missed it. Under serial processing the two vectors coincide; under
	// the concurrent extension they can briefly differ during failure
	// detection, and using the coordinator's keeps every table
	// identical.
	vector []core.SiteInfo
	start  time.Time        // start of participation, for TimerPartTxn
	coord  core.SiteID      // the coordinator, for Appendix A.2's failure arm
	trace  uint64           // trace ID carried by the prepare envelope
	timer  *time.Timer      // fires if no phase-two decision arrives
	lm     *lockmgr.Manager // holds this txn's X locks (concurrent mode)
}

// stop cancels the decision timer, if armed.
func (st *stagedTxn) stop() {
	if st.timer != nil {
		st.timer.Stop()
	}
}

// finish stops the timer and releases any participant-side locks.
func (st *stagedTxn) finish(id core.TxnID) {
	st.stop()
	if st.lm != nil {
		st.lm.Release(id)
	}
}

// Site is one mini-RAID database site.
type Site struct {
	cfg    Config
	pol    policy.Policy
	ep     transport.Endpoint
	caller *transport.Caller
	reg    *metrics.Registry
	tracer *trace.Recorder
	// replicas holds the current replica placement behind an atomic
	// pointer: coordinator and handler paths read it without mu, so a
	// rehost (permanent-loss rebalancing) clones the map, edits the
	// clone, and swaps it in. Each operation snapshots the pointer once
	// via replicaMap and uses that snapshot throughout.
	replicas atomic.Pointer[core.ReplicaMap]

	mu sync.Mutex
	// state changes only under mu, so a handler holding mu sees it stand
	// still; the receive loop reads it without.
	state   atomicStatus
	session core.SessionNum
	vec     core.SessionVector
	flocks  *core.FailLockTable
	staged  map[core.TxnID]*stagedTxn
	stats   msg.SiteStats

	store storage.Store

	// txnGate bounds in-flight transaction execution: capacity 1 in the
	// paper's serial mode, ConcurrentTxns in concurrent mode.
	txnGate chan struct{}
	// locks is the strict-2PL manager; non-nil only in concurrent mode.
	// Replaced wholesale on simulated failure (process lock state dies
	// with the process): swapped under mu, read without.
	locks atomic.Pointer[lockmgr.Manager]
	// epoch batches commit fan-outs; non-nil only when CommitEpoch > 0.
	epoch *epochBatcher

	// reqSeen tracks, per sender, a bounded window of request sequence
	// numbers already handled. A chaotic transport can deliver a request
	// twice; replaying a Prepare after its Commit would re-stage the
	// transaction and leak a decision timer that later fires as a
	// spurious coordinator-failure announcement. A high-watermark check
	// is NOT safe here: Caller assigns seqs atomically but sends outside
	// any lock, so two concurrent calls on one caller can reach the wire
	// out of order (concurrent mode multiplexes in-flight transactions
	// over one caller) — a watermark would drop the late-arriving lower
	// seq as a false duplicate. An exact-match window suffices because a
	// chaos duplicate trails its original by at most the link's in-flight
	// backlog. Replies bypass this (their Seq belongs to the requester's
	// stream); Caller.Deliver already drops duplicate replies. Indexed by
	// the sender's SiteID; touched only by the run goroutine.
	reqSeen [1 << 8]*seqWindow
	// msgsIn counts inbound messages (SiteStats.MsgsIn); only the run
	// goroutine adds to it.
	msgsIn atomic.Uint64

	wg       sync.WaitGroup
	stopOnce sync.Once
}

// New creates a site attached to net. Call Start to begin processing.
func New(cfg Config, net transport.Network) (*Site, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	ep, err := net.Endpoint(cfg.ID)
	if err != nil {
		return nil, err
	}
	gate := 1
	if cfg.ConcurrentTxns > 1 {
		gate = cfg.ConcurrentTxns
	}
	session := cfg.Session
	if session == 0 {
		session = 1
	}
	state := core.StatusUp
	if cfg.StartDown {
		state = core.StatusDown
	}
	s := &Site{
		cfg:     cfg,
		pol:     cfg.Policy,
		ep:      ep,
		caller:  transport.NewCaller(ep, cfg.AckTimeout),
		reg:     cfg.Metrics,
		tracer:  cfg.Tracer,
		session: session,
		vec:     core.NewSessionVector(cfg.Sites),
		flocks:  core.NewFailLockTable(cfg.Items, cfg.Sites),
		staged:  make(map[core.TxnID]*stagedTxn),
		store:   cfg.Store,
		txnGate: make(chan struct{}, gate),
	}
	s.state.set(state)
	s.locks.Store(newLockManager(cfg))
	if cfg.StartDown {
		s.vec.MarkDown(cfg.ID)
	}
	s.replicas.Store(cfg.Replicas)
	s.epoch = newEpochBatcher(s)
	return s, nil
}

// replicaMap returns the current replica placement. Every operation
// snapshots it once and uses the snapshot throughout, so a concurrent
// rehost swap cannot split one transaction across two placements.
func (s *Site) replicaMap() *core.ReplicaMap { return s.replicas.Load() }

// newLockManager builds the 2PL manager for concurrent mode; serial mode
// (the paper's) needs none. The acquisition timeout (Config.LockWaitBudget)
// is the one deadlock breaker: ordered lock sets rule out cycles inside a
// site, and it ends those that span sites.
func newLockManager(cfg Config) *lockmgr.Manager {
	if cfg.ConcurrentTxns <= 1 {
		return nil
	}
	return lockmgr.New(cfg.LockWaitBudget)
}

// concurrent reports whether the site runs the interleaved-execution
// extension.
func (s *Site) concurrent() bool { return s.cfg.ConcurrentTxns > 1 }

// lockManager returns the current 2PL manager instance. Simulated failure
// replaces it (a real crash would lose lock state), so callers capture the
// instance once per transaction.
func (s *Site) lockManager() *lockmgr.Manager { return s.locks.Load() }

// ID returns the site's identity.
func (s *Site) ID() core.SiteID { return s.cfg.ID }

// emit records one completed protocol phase into the tracer (a no-op
// when tracing is disabled or the message carried no trace ID).
func (s *Site) emit(tr uint64, phase, kind string, start time.Time) {
	if tr == 0 {
		return
	}
	s.tracer.Emit(trace.ID(tr), s.cfg.ID, phase, kind, start)
}

// Metrics returns the site's metrics registry.
func (s *Site) Metrics() *metrics.Registry { return s.reg }

// Policy returns the replication policy the site runs.
func (s *Site) Policy() policy.Policy { return s.pol }

// Start launches the receive loop.
func (s *Site) Start() {
	s.wg.Add(1)
	go s.run()
}

// Stop terminates the site: the receive loop exits and in-flight calls are
// cancelled. Stop blocks until the loop has finished.
func (s *Site) Stop() {
	s.stopOnce.Do(func() {
		s.mu.Lock()
		s.state.set(core.StatusTerminating)
		s.mu.Unlock()
		s.caller.CancelAll()
		if s.epoch != nil {
			// After CancelAll so in-flight ack collectors unblock; before
			// the endpoint closes so drained waiters see a live caller.
			s.epoch.shutdown()
		}
		s.ep.Close()
	})
	s.wg.Wait()
}

// run is the receive loop: replies go to the caller's pending table,
// requests to handle. A site simulating failure drops everything except
// managing-site control traffic, exactly as the paper prescribes ("the
// site should not participate in any further system actions", §1.2).
func (s *Site) run() {
	defer s.wg.Done()
	for {
		env, ok := s.ep.Recv()
		if !ok {
			return
		}
		s.msgsIn.Add(1)
		state := s.state.get()
		if state == core.StatusTerminating {
			return
		}
		if state == core.StatusDown && !adminAllowed(env) {
			continue // failed sites are deaf
		}
		if env.Body.Kind().IsReply() {
			s.caller.Deliver(env)
			continue
		}
		if env.Seq != 0 {
			w := s.reqSeen[env.From]
			if w == nil {
				w = new(seqWindow)
				s.reqSeen[env.From] = w
			}
			if !w.add(env.Seq) {
				continue // duplicated request, already handled
			}
		}
		s.handle(env)
	}
}

// atomicStatus is a core.Status that can be read without a lock.
type atomicStatus struct{ v atomic.Uint32 }

func (a *atomicStatus) get() core.Status   { return core.Status(a.v.Load()) }
func (a *atomicStatus) set(st core.Status) { a.v.Store(uint32(st)) }

// seqWindowSize bounds per-sender duplicate-suppression memory. It only
// needs to exceed the number of messages a link can hold between an
// original and its chaos duplicate (the duplicate is re-sent immediately
// after the original, so that backlog is the per-link queue depth).
const seqWindowSize = 1024

// seqWindow remembers recently seen sequence numbers in a ring indexed by
// the number itself: seq lives in slot seq mod seqWindowSize until another
// number takes the slot. Membership is an exact match on one slot — no
// map, no scan, no watermark. A number is forgotten only when one a
// multiple of seqWindowSize away arrives, and a sender's numbers come off
// one rising counter, so that is at least seqWindowSize of its sends
// later. The zero value is an empty window; it relies on seq 0 never
// being added (the receive loop skips unsequenced messages).
type seqWindow struct {
	ring [seqWindowSize]uint64
}

// add records seq and reports true, or reports false if seq is already in
// the window (a duplicate).
func (w *seqWindow) add(seq uint64) bool {
	slot := &w.ring[seq%seqWindowSize]
	if *slot == seq {
		return false
	}
	*slot = seq
	return true
}

// adminAllowed reports whether a message may reach a site that is
// simulating failure: only the managing site's recover/shutdown orders and
// its out-of-band status probes.
func adminAllowed(env *msg.Envelope) bool {
	if env.From != core.ManagingSite {
		return false
	}
	switch env.Body.Kind() {
	case msg.KindRecoverSim, msg.KindShutdown, msg.KindStatusReq:
		return true
	}
	return false
}

// State returns the site's current lifecycle state.
func (s *Site) State() core.Status { return s.state.get() }

// Session returns the site's current session number.
func (s *Site) Session() core.SessionNum {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.session
}

// Vector returns a copy of the site's nominal session vector.
func (s *Site) Vector() core.SessionVector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vec.Clone()
}

// FailLockCount returns the number of items fail-locked for the given
// site, in this site's table — the per-transaction measurement behind the
// paper's figures.
func (s *Site) FailLockCount(id core.SiteID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flocks.CountForSite(id)
}

// Stats returns a snapshot of the site's counters.
func (s *Site) Stats() msg.SiteStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

// statsLocked returns the counter block with the message counts, which
// live outside it, filled in; callers hold mu.
func (s *Site) statsLocked() msg.SiteStats {
	st := s.stats
	st.MsgsIn = s.msgsIn.Load()
	st.MsgsOut = s.caller.Sent()
	return st
}

// Wait blocks until the site's receive loop and handlers have finished —
// after Stop, or after a Shutdown message arrived. cmd/raidsrv uses it to
// keep the process alive until the managing site orders termination.
func (s *Site) Wait() { s.wg.Wait() }

// InjectFailLock sets a fail-lock bit directly, bypassing the protocol — a
// bench/test hook for constructing copier scenarios without paying a real
// failure-detection cycle per iteration.
func (s *Site) InjectFailLock(item core.ItemID, target core.SiteID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flocks.Set(item, target)
}

// InjectCorruption overwrites the local copy of item behind the protocol's
// back — no fail-lock, no propagation. It exists for audit tests and
// fault-injection experiments: the consistency audit must flag the
// resulting untracked divergence.
func (s *Site) InjectCorruption(item core.ItemID, value []byte) (core.ItemVersion, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, err := s.store.Get(item)
	if err != nil {
		return core.ItemVersion{}, err
	}
	iv := core.ItemVersion{Item: item, Version: cur.Version + 1, Value: value}
	if _, err := s.store.Apply(iv); err != nil {
		return core.ItemVersion{}, err
	}
	return iv, nil
}

// statusRespLocked builds a StatusResp; callers hold mu.
func (s *Site) statusRespLocked(includeFailLocks bool) *msg.StatusResp {
	counts := make([]uint32, s.cfg.Sites)
	for i := 0; i < s.cfg.Sites; i++ {
		counts[i] = uint32(s.flocks.CountForSite(core.SiteID(i)))
	}
	resp := &msg.StatusResp{
		Site:           s.cfg.ID,
		State:          s.state.get(),
		Session:        s.session,
		Vector:         s.vec.Records(),
		FailLockCounts: counts,
		Stats:          s.statsLocked(),
	}
	if includeFailLocks {
		resp.FailLocks = s.flocks.Snapshot()
	}
	return resp
}
