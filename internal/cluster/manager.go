package cluster

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
	"minraid/internal/policy"
	"minraid/internal/trace"
	"minraid/internal/transport"
)

// Errors returned by the managing-site operations.
var (
	// ErrNoResponse means the target site never answered — it is down or
	// the call outlived the manager timeout.
	ErrNoResponse = errors.New("cluster: site did not respond")
	// ErrRecoveryBlocked means recovery failed because no operational
	// site could supply the session vector and fail-locks.
	ErrRecoveryBlocked = errors.New("cluster: recovery blocked: no operational donor")
	// ErrSiteRemoved means the site was permanently retired by Rebalance
	// and can never rejoin: its copies have been re-homed.
	ErrSiteRemoved = errors.New("cluster: site permanently removed by rebalance")
)

// ManagerConfig parameterizes a standalone Manager.
type ManagerConfig struct {
	// Sites is the number of database sites (not counting the manager).
	Sites int
	// Items is the database size.
	Items int
	// Policy is the replication protocol the sites run (nil: ROWAA).
	// The manager needs it to size quorum audits and to refuse
	// operations that assume fail-locks under a policy without them.
	Policy policy.Policy
	// Timeout bounds every managing-site call (transactions, recovery
	// waits). Default 30s.
	Timeout time.Duration
	// Replicas is the item-to-site placement (nil: full replication).
	Replicas *core.ReplicaMap
	// Tracer, when non-nil, receives inject-phase trace events.
	Tracer *trace.Recorder
	// TxnIDBase offsets transaction-ID allocation; the first ID handed
	// out is TxnIDBase+1.
	TxnIDBase uint64
}

// Manager is the managing site's control plane: transaction injection,
// fail/recover orders, status probes, consistency audits, split-brain
// reconciliation, false-suspicion repair, healing (fail-lock drains and
// the background scrubber) and permanent-loss rebalancing. Every
// operation is pure request/response messaging through one
// transport.Caller, so the same Manager drives an in-process cluster over
// the memory transport and a fleet of raidsrv OS processes over real TCP
// (internal/deploy.ProcFabric) identically.
//
// Cluster embeds a Manager; standalone deployments build one with
// NewManager around a caller whose receive loop delivers replies.
type Manager struct {
	caller  *transport.Caller
	sites   int
	items   int
	pol     policy.Policy
	timeout time.Duration
	tracer  *trace.Recorder

	nextTxn   atomic.Uint64
	nextAdmin atomic.Uint64

	// replicas is the managing site's view of the current placement. It
	// starts as cfg.Replicas (nil: full replication) and is replaced,
	// copy-on-write, when Rebalance re-homes a permanently lost site's
	// copies. removed is the bitmask of sites Rebalance retired; they can
	// never recover (their copies now live elsewhere).
	replicas atomic.Pointer[core.ReplicaMap]
	removed  atomic.Uint64
}

// NewManager builds a manager over caller. The caller's owner must run a
// receive loop that hands every inbound envelope to caller.Deliver.
func NewManager(caller *transport.Caller, cfg ManagerConfig) (*Manager, error) {
	if cfg.Sites <= 0 || cfg.Sites > core.MaxSites {
		return nil, fmt.Errorf("cluster: manager: %d sites out of range", cfg.Sites)
	}
	if cfg.Items <= 0 {
		return nil, fmt.Errorf("cluster: manager: %d items out of range", cfg.Items)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	m := &Manager{
		caller:  caller,
		sites:   cfg.Sites,
		items:   cfg.Items,
		pol:     cfg.Policy,
		timeout: cfg.Timeout,
		tracer:  cfg.Tracer,
	}
	if cfg.Replicas != nil {
		m.replicas.Store(cfg.Replicas)
	} else {
		m.replicas.Store(core.FullReplication(cfg.Items, cfg.Sites))
	}
	m.nextTxn.Store(cfg.TxnIDBase)
	return m, nil
}

// Sites returns the number of database sites.
func (c *Manager) Sites() int { return c.sites }

// Items returns the database size.
func (c *Manager) Items() int { return c.items }

// Tracer returns the manager's trace recorder (nil when tracing is off).
func (c *Manager) Tracer() *trace.Recorder { return c.tracer }

// Caller exposes the underlying transport caller, for owners that route
// inbound envelopes (Deliver) or cancel in-flight calls on shutdown.
func (c *Manager) Caller() *transport.Caller { return c.caller }

// adminTrace allocates a trace ID for a managing-site admin operation
// (fail/recover). Admin IDs live above trace.AdminBase so they never
// collide with transaction IDs, and they draw from their own counter so
// tracing does not perturb the transaction numbering experiments rely on.
func (c *Manager) adminTrace() uint64 {
	return uint64(trace.AdminBase) + c.nextAdmin.Add(1)
}

// NextTxnID allocates the next transaction identifier. The managing site
// numbers transactions sequentially from TxnIDBase+1 (from 1, as the
// paper does, unless a multi-epoch soak carries the counter forward).
func (c *Manager) NextTxnID() core.TxnID { return core.TxnID(c.nextTxn.Add(1)) }

// LastTxnID returns the highest transaction ID allocated so far (or
// TxnIDBase if none were). A persisting soak feeds this into the next
// epoch's TxnIDBase so on-disk item versions stay monotone.
func (c *Manager) LastTxnID() uint64 { return c.nextTxn.Load() }

// Exec sends one database transaction to the given coordinator and waits
// for its outcome. The transaction ID is allocated automatically.
func (c *Manager) Exec(coordinator core.SiteID, ops []core.Op) (*msg.TxnResult, error) {
	return c.ExecTxn(coordinator, c.NextTxnID(), ops)
}

// ExecTxn sends a database transaction with an explicit ID.
func (c *Manager) ExecTxn(coordinator core.SiteID, id core.TxnID, ops []core.Op) (*msg.TxnResult, error) {
	return c.ExecTxnTimeout(coordinator, id, ops, c.timeout)
}

// ExecTxnTimeout is ExecTxn with a per-call reply deadline (non-positive
// falls back to the manager timeout). Background repair traffic — the
// scrubber's read batches — uses it so a transaction racing a Fail order
// stalls for a bounded wait, not the full manager timeout.
func (c *Manager) ExecTxnTimeout(coordinator core.SiteID, id core.TxnID, ops []core.Op, timeout time.Duration) (*msg.TxnResult, error) {
	if timeout <= 0 {
		timeout = c.timeout
	}
	start := time.Now()
	reply, err := c.caller.CallTimeoutT(uint64(id), coordinator, &msg.ClientTxn{Txn: id, Ops: ops}, timeout)
	if err != nil {
		return nil, fmt.Errorf("%w: %s (txn %d): %v", ErrNoResponse, coordinator, id, err)
	}
	res, ok := reply.Body.(*msg.TxnResult)
	if !ok {
		return nil, fmt.Errorf("cluster: unexpected reply %s to txn %d", reply.Body.Kind(), id)
	}
	c.tracer.Emit(trace.ID(id), core.ManagingSite, trace.PhaseInject,
		fmt.Sprintf("coord=%d ops=%d", coordinator, len(ops)), start)
	return res, nil
}

// Fail orders a site to simulate failure and waits for the acknowledgement.
func (c *Manager) Fail(id core.SiteID) error {
	if _, err := c.caller.CallT(c.adminTrace(), id, &msg.FailSim{}); err != nil {
		return fmt.Errorf("%w: failing %s: %v", ErrNoResponse, id, err)
	}
	return nil
}

// Recover orders a failed site to recover and waits until recovery
// completes (the site replies with its status once the type-1 control
// transaction has finished). ErrRecoveryBlocked is returned when no
// operational site could act as donor. A site retired by Rebalance is
// permanently removed — its copies live elsewhere now — and is refused
// with ErrSiteRemoved.
func (c *Manager) Recover(id core.SiteID) (*msg.StatusResp, error) {
	if c.removed.Load()&(1<<id) != 0 {
		return nil, fmt.Errorf("%w: %s", ErrSiteRemoved, id)
	}
	reply, err := c.caller.CallT(c.adminTrace(), id, &msg.RecoverSim{})
	if err != nil {
		return nil, fmt.Errorf("%w: recovering %s: %v", ErrNoResponse, id, err)
	}
	st, ok := reply.Body.(*msg.StatusResp)
	if !ok {
		return nil, fmt.Errorf("cluster: unexpected reply %s to recover", reply.Body.Kind())
	}
	if st.State != core.StatusUp {
		return st, ErrRecoveryBlocked
	}
	return st, nil
}

// Shutdown orders a site to terminate its process (raidsrv exits; an
// in-process site stops its receive loop) and waits for the ack.
func (c *Manager) Shutdown(id core.SiteID) error {
	if _, err := c.caller.CallT(c.adminTrace(), id, &msg.Shutdown{}); err != nil {
		return fmt.Errorf("%w: shutting down %s: %v", ErrNoResponse, id, err)
	}
	return nil
}

// Status queries a site's replicated-copy-control state. Works even on a
// failed site (out-of-band instrumentation).
func (c *Manager) Status(id core.SiteID, includeFailLocks bool) (*msg.StatusResp, error) {
	return c.StatusTimeout(id, includeFailLocks, 0)
}

// StatusTimeout is Status with a per-call reply deadline (non-positive
// falls back to the manager timeout), for probes that poll a site which
// may be down (a restarting raidsrv process) and must not stall for the
// full manager timeout per attempt.
func (c *Manager) StatusTimeout(id core.SiteID, includeFailLocks bool, timeout time.Duration) (*msg.StatusResp, error) {
	if timeout <= 0 {
		timeout = c.timeout
	}
	reply, err := c.caller.CallTimeoutT(0, id, &msg.StatusReq{IncludeFailLocks: includeFailLocks}, timeout)
	if err != nil {
		return nil, fmt.Errorf("%w: status of %s: %v", ErrNoResponse, id, err)
	}
	st, ok := reply.Body.(*msg.StatusResp)
	if !ok {
		return nil, fmt.Errorf("cluster: unexpected reply %s to status", reply.Body.Kind())
	}
	return st, nil
}

// Dump returns a site's versioned database copy: every item under full
// replication, only the hosted items under a partial map (the audits
// reconstruct placement-aware views from the sparse dump, keeping audit
// payloads O(items×degree) instead of O(items×sites)).
func (c *Manager) Dump(id core.SiteID) ([]core.ItemVersion, error) {
	reply, err := c.caller.Call(id, &msg.DumpReq{First: 0, Last: core.ItemID(c.items - 1), HostedOnly: true})
	if err != nil {
		return nil, fmt.Errorf("%w: dump of %s: %v", ErrNoResponse, id, err)
	}
	resp, ok := reply.Body.(*msg.DumpResp)
	if !ok {
		return nil, fmt.Errorf("cluster: unexpected reply %s to dump", reply.Body.Kind())
	}
	return resp.Items, nil
}

// FailLockCount returns, as observed by observer's table, how many items
// are fail-locked for target — the quantity plotted in the paper's figures.
func (c *Manager) FailLockCount(observer, target core.SiteID) (int, error) {
	st, err := c.Status(observer, false)
	if err != nil {
		return 0, err
	}
	if int(target) >= len(st.FailLockCounts) {
		return 0, fmt.Errorf("cluster: target %s out of range", target)
	}
	return int(st.FailLockCounts[target]), nil
}
