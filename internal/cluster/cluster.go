// Package cluster assembles a complete in-process mini-RAID system: N
// database sites on one wire plus the managing site, which
// "provide[s] interactive control of system actions ... used to cause
// sites to fail and recover and to initiate a database transaction to a
// site" (§1.2). The managing-site control plane itself — transaction
// injection, fail/recover orders, audits, reconciliation, repair and
// healing — lives in Manager, which is pure request/response messaging and
// also drives fleets of raidsrv OS processes over real TCP
// (internal/deploy). Healing is one per-site step — probe the table, list
// the site's own fail-locked copies, read them in batched transactions
// there — run to completion by DrainFailLocks or continuously, paced, by a
// background Scrubber.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"minraid/internal/core"
	"minraid/internal/metrics"
	"minraid/internal/policy"
	"minraid/internal/site"
	"minraid/internal/storage"
	"minraid/internal/trace"
	"minraid/internal/transport"
)

// Config carries the system parameters the paper's managing site defines:
// database size, number of sites, and the protocol configuration.
type Config struct {
	// Sites is "the number of database sites for the transaction
	// processing (not including the managing site)".
	Sites int
	// Items is "the database size in terms of the number of data items".
	Items int
	// Policy is the replication protocol (nil: ROWAA).
	Policy policy.Policy
	// Delay is the per-hop inter-site communication cost (0 for unit
	// tests; 9ms reproduces the paper's hardware).
	Delay time.Duration
	// AckTimeout is each site's failure-detection timeout.
	AckTimeout time.Duration
	// ManagerTimeout bounds managing-site calls (transactions, recovery
	// waits). Default 30s.
	ManagerTimeout time.Duration
	// DisableFailLockMaintenance removes fail-lock code on every site
	// (experiment 1 ablation).
	DisableFailLockMaintenance bool
	// BatchCopierThreshold enables two-step recovery on every site.
	BatchCopierThreshold float64
	// EnableType3 enables type-3 control transactions on every site.
	EnableType3 bool
	// StoreFactory supplies per-site stores (nil: in-memory, as in the
	// paper).
	StoreFactory func(id core.SiteID) (storage.Store, error)
	// Replicas assigns items to hosting sites (nil: full replication,
	// the paper's assumption 4). Partial replication requires ROWAA.
	Replicas *core.ReplicaMap
	// ConcurrentTxns enables interleaved transaction execution under
	// distributed strict 2PL on every site (the paper's deferred
	// concurrency-control future work); 0 or 1 keeps serial processing.
	ConcurrentTxns int
	// LockWaitBudget bounds a concurrent-mode lock wait at every site;
	// zero defaults to half the ack timeout (see site.Config).
	LockWaitBudget time.Duration
	// CommitEpoch enables epoch-batched commit on every site: phase-two
	// fan-outs flush once per epoch boundary instead of per transaction
	// (see site.Config.CommitEpoch). Zero is an epoch of one transaction,
	// retired inline: per-transaction commit.
	CommitEpoch time.Duration
	// Tracer receives structured trace events from every site and
	// per-kind message counts from the transport. Nil allocates a shared
	// recorder with the default capacity.
	Tracer *trace.Recorder
	// Chaos, when non-nil, configures the cluster's fault layer with
	// seeded per-link message drop, duplication and latency jitter — the
	// adversarial wire the paper's assumption 1 rules out. Nil leaves the
	// layer a pass-through that only cuts links on request. Managing-site
	// links should normally stay exempt (ChaosConfig.ExemptManager) so
	// control and measurement traffic remains reliable while the protocol
	// links misbehave.
	Chaos *transport.ChaosConfig
	// Transport selects the wire: "" or "memory" runs the in-process
	// memory transport; "tcp" assembles a loopback TCP fabric — one
	// listener per site plus the manager, CRC framing, reconnect and
	// per-sender dedup — so the soak exercises the cross-process wire.
	Transport string
	// TxnIDBase offsets transaction-ID allocation: the first ID handed
	// out is TxnIDBase+1. Multi-epoch soaks that persist stores across
	// cluster instances use it to keep item versions (= txn IDs)
	// monotone across epochs; 0 numbers from 1 as the paper does.
	TxnIDBase uint64
}

// Cluster is a running mini-RAID system: the sites, the wire they attach
// to, and the embedded Manager that is the managing site's control plane.
type Cluster struct {
	*Manager

	cfg Config
	// net is the memory wire (nil on the TCP fabric); chaos is the one
	// fault layer over whichever wire runs, and what sites attach to.
	net   *transport.Memory
	chaos *transport.Chaos
	sites []*site.Site
	mgr   transport.Endpoint

	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Sites <= 0 || cfg.Sites > core.MaxSites {
		return nil, fmt.Errorf("cluster: %d sites out of range", cfg.Sites)
	}
	if cfg.Items <= 0 {
		return nil, fmt.Errorf("cluster: %d items out of range", cfg.Items)
	}
	if cfg.ManagerTimeout <= 0 {
		cfg.ManagerTimeout = 30 * time.Second
	}
	if cfg.Tracer == nil {
		cfg.Tracer = trace.NewRecorder(0)
	}
	c := &Cluster{cfg: cfg}
	var wire transport.Network
	switch cfg.Transport {
	case "", "memory":
		c.net = transport.NewMemory(transport.MemoryConfig{Sites: cfg.Sites, Delay: cfg.Delay})
		c.net.SetTracer(cfg.Tracer)
		wire = c.net
	case "tcp":
		fabric, err := newTCPFabric(cfg.Sites, cfg.Tracer)
		if err != nil {
			return nil, err
		}
		wire = fabric
	default:
		return nil, fmt.Errorf("cluster: unknown transport %q", cfg.Transport)
	}
	var chaosCfg transport.ChaosConfig // zero: every link exempt, a pass-through
	if cfg.Chaos != nil {
		chaosCfg = *cfg.Chaos
	}
	c.chaos = transport.NewChaos(wire, chaosCfg)

	for i := 0; i < cfg.Sites; i++ {
		id := core.SiteID(i)
		var store storage.Store
		if cfg.StoreFactory != nil {
			var err error
			store, err = cfg.StoreFactory(id)
			if err != nil {
				c.chaos.Close()
				return nil, fmt.Errorf("cluster: store for %s: %w", id, err)
			}
		}
		s, err := site.New(site.Config{
			ID:                         id,
			Sites:                      cfg.Sites,
			Items:                      cfg.Items,
			Policy:                     cfg.Policy,
			Store:                      store,
			AckTimeout:                 cfg.AckTimeout,
			DisableFailLockMaintenance: cfg.DisableFailLockMaintenance,
			BatchCopierThreshold:       cfg.BatchCopierThreshold,
			EnableType3:                cfg.EnableType3,
			Replicas:                   cfg.Replicas,
			ConcurrentTxns:             cfg.ConcurrentTxns,
			LockWaitBudget:             cfg.LockWaitBudget,
			CommitEpoch:                cfg.CommitEpoch,
			Tracer:                     cfg.Tracer,
		}, c.chaos)
		if err != nil {
			c.chaos.Close()
			return nil, err
		}
		c.sites = append(c.sites, s)
	}

	mgr, err := c.chaos.Endpoint(core.ManagingSite)
	if err != nil {
		c.chaos.Close()
		return nil, err
	}
	c.mgr = mgr
	c.Manager, err = NewManager(transport.NewCaller(mgr, cfg.ManagerTimeout), ManagerConfig{
		Sites:     cfg.Sites,
		Items:     cfg.Items,
		Policy:    cfg.Policy,
		Timeout:   cfg.ManagerTimeout,
		Replicas:  cfg.Replicas,
		Tracer:    cfg.Tracer,
		TxnIDBase: cfg.TxnIDBase,
	})
	if err != nil {
		c.chaos.Close()
		return nil, err
	}

	for _, s := range c.sites {
		s.Start()
	}
	c.wg.Add(1)
	go c.run()
	return c, nil
}

// run is the managing site's receive loop: it only consumes replies.
func (c *Cluster) run() {
	defer c.wg.Done()
	for {
		env, ok := c.mgr.Recv()
		if !ok {
			return
		}
		c.caller.Deliver(env)
	}
}

// Close stops every site and the network.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		for _, s := range c.sites {
			s.Stop()
		}
		c.caller.CancelAll()
		c.chaos.Close()
		c.wg.Wait()
	})
}

// Site returns the site object (for in-process metrics access).
func (c *Cluster) Site(id core.SiteID) *site.Site { return c.sites[id] }

// Registry returns site id's metrics registry.
func (c *Cluster) Registry(id core.SiteID) *metrics.Registry { return c.sites[id].Metrics() }

// MessagesSent returns the network-wide message count (memory transport
// only; the TCP fabric reports 0 — use the tracer's per-kind counts).
func (c *Cluster) MessagesSent() uint64 { return c.net.MessagesSent() }

// ChaosStats snapshots the fault layer's per-link decision counters: every
// link that was offered a message under a probabilistic fault, and every
// link that discarded a message while cut (SetLinkDown, SetLinkDropAfter),
// counted in Cut. Two runs with the same chaos seed and workload produce
// identical counters — the reproducibility check soak runs assert.
func (c *Cluster) ChaosStats() map[transport.LinkID]transport.LinkStats {
	return c.chaos.Stats()
}

// SetLinkDown makes the directed link from->to silently drop messages, or
// restores it, in the fault layer on either wire.
func (c *Cluster) SetLinkDown(from, to core.SiteID, down bool) {
	c.chaos.SetLinkDown(from, to, down)
}

// SetLinkDropAfter lets the directed link from->to deliver n more messages
// and then drop the rest (negative n removes the limit) — fault injection
// for mid-protocol failures, on either wire.
func (c *Cluster) SetLinkDropAfter(from, to core.SiteID, n int) {
	c.chaos.SetLinkDropAfter(from, to, n)
}

// Partition cuts (down=true) or heals (down=false) every link between the
// two site groups, in both directions — a symmetric network partition.
// The paper's experiments fail whole sites; partitions are the other
// hazard fail-locks are defined against ("a copy of a data item is being
// updated while some other copies are unavailable due to site failure or
// network partitioning", §1.1).
func (c *Cluster) Partition(groupA, groupB []core.SiteID, down bool) {
	for _, a := range groupA {
		for _, b := range groupB {
			c.SetLinkDown(a, b, down)
			c.SetLinkDown(b, a, down)
		}
	}
}
