// Package scrub implements continuous heal: a background scrubber that
// walks each operational site's fail-locked items and repairs them with
// rate-limited batches of read transactions while foreground traffic
// continues. Reading a fail-locked local copy runs a demand copier
// against an up-to-date donor and the clear fan-out propagates the
// cleared bit everywhere (§1.2, Appendix A.1), so the scrubber needs no
// repair primitive of its own — it is a pacemaker for the machinery the
// paper already defines, in the mold of an mdadm/ZFS scrub.
//
// Paired with REDO-only instant recovery (site.Config.InstantRecovery),
// it replaces the demand-only long tail the paper measures, the one-shot
// threshold/batch two-step of §3.2, and the managing site's fixed
// DrainFailLocks epilogue: a recovering site is operational the moment
// its fail-lock set is installed, and the scrubber grinds the stale set
// to zero in the background at a configurable items/sec budget.
package scrub

import (
	"fmt"
	"sync"
	"time"

	"minraid/internal/core"
	"minraid/internal/metrics"
	"minraid/internal/msg"
	"minraid/internal/trace"
)

// Metric names recorded in Config.Metrics.
const (
	// TimerPass is the wall time of one whole scrub pass over every site.
	TimerPass = "scrub.pass"
	// TimerBatch is the duration of one repair batch (one read
	// transaction over fail-locked items).
	TimerBatch = "scrub.batch"
	// TimerHeal is the duration of one heal episode: a site first
	// observed with fail-locked items until first observed clean.
	TimerHeal = "scrub.heal"
	// CounterItems counts items scrubbed clean (read under a committed
	// repair batch, so their fail-locks are gone).
	CounterItems = "scrub.items"
	// CounterCopiers counts copier transactions the repair batches ran.
	CounterCopiers = "scrub.copiers"
)

// txnIDBase offsets the scrubber's transaction IDs. Foreground
// transactions number from 1 (or the soak's TxnIDBase) and admin traces
// live at trace.AdminBase (1<<32); the scrubber draws from its own
// disjoint space so background repairs never perturb the foreground
// numbering that reproducibility checks fingerprint.
const txnIDBase = uint64(3) << 32

// passTraceBase offsets per-pass trace span IDs, disjoint from both
// transaction IDs (including the scrubber's own) and admin trace IDs.
const passTraceBase = uint64(4) << 32

// Target is the slice of the managing-site API the scrubber drives. A
// *cluster.Manager (and so a *cluster.Cluster) satisfies it.
type Target interface {
	// Sites returns the number of database sites.
	Sites() int
	// Replicas returns the current item-to-site placement; the scrubber
	// only repairs a site's own hosted copies.
	Replicas() *core.ReplicaMap
	// StatusTimeout queries one site's state and, with includeFailLocks,
	// its fail-lock table snapshot, with a bounded reply wait. A site in
	// the simulated failed state still answers; a crashed process does
	// not, and must cost a pass a bounded stall, not the manager timeout.
	StatusTimeout(id core.SiteID, includeFailLocks bool, timeout time.Duration) (*msg.StatusResp, error)
	// ExecTxnTimeout coordinates one transaction at the given site with a
	// bounded reply wait.
	ExecTxnTimeout(coordinator core.SiteID, id core.TxnID, ops []core.Op, timeout time.Duration) (*msg.TxnResult, error)
}

// Config parameterizes a Scrubber.
type Config struct {
	// Rate caps the scrub budget in items per second across all sites;
	// zero or negative means unthrottled. The budget is a token bucket
	// with burst capacity BatchSize, so an idle stretch never banks more
	// than one batch of credit.
	Rate float64
	// BatchSize bounds the fail-locked items repaired by one read
	// transaction (default 8).
	BatchSize int
	// Interval is the idle poll period between passes that found nothing
	// to heal (default 25ms). Kick cuts it short.
	Interval time.Duration
	// ExecTimeout bounds the reply wait of one repair transaction or
	// status probe, so a batch racing a site failure (or a probe of a
	// crashed process) costs the scrubber a bounded stall (default 2s). Keep it above the cluster's ack timeout: the repair
	// itself may legitimately wait out a failure detection.
	ExecTimeout time.Duration
	// Metrics receives scrub timers and counters; nil allocates a private
	// registry (readable via Scrubber.Metrics).
	Metrics *metrics.Registry
	// Tracer receives one span per scrub pass; nil disables tracing.
	Tracer *trace.Recorder
}

func (c *Config) fillDefaults() {
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	if c.Interval <= 0 {
		c.Interval = 25 * time.Millisecond
	}
	if c.ExecTimeout <= 0 {
		c.ExecTimeout = 2 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
}

// Stats is a snapshot of the scrubber's counters.
type Stats struct {
	// Passes counts completed scans over every site.
	Passes int
	// Batches counts repair transactions issued; Aborts those that came
	// back uncommitted (no donor reachable yet, lock contention); Errors
	// those that got no reply at all (target failed mid-batch).
	Batches, Aborts, Errors int
	// ItemsScrubbed counts items read under committed repair batches —
	// each is clean once its batch commits. Copiers counts the copier
	// transactions those batches ran (fewer when demand copiers or
	// foreground commits got there first).
	ItemsScrubbed, Copiers int
	// Throttles counts rate-budget waits.
	Throttles int
	// HealEpisodes counts site heal episodes driven to zero fail-locks;
	// LastHealTime and MaxHealTime measure them from the first pass that
	// saw the site stale to the first that saw it clean.
	HealEpisodes int
	LastHealTime time.Duration
	MaxHealTime  time.Duration
}

// Scrubber is the background healer. Create with New, then Start; Stop
// halts the loop and waits for any in-flight batch.
type Scrubber struct {
	t      Target
	cfg    Config
	reg    *metrics.Registry
	tracer *trace.Recorder

	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	startOnce, stopOnce sync.Once

	mu      sync.Mutex
	stats   Stats
	healing map[core.SiteID]time.Time // heal-episode start per site
	txnSeq  uint64
	passSeq uint64
}

// New builds a scrubber over t. It does not start scrubbing until Start.
func New(t Target, cfg Config) *Scrubber {
	cfg.fillDefaults()
	return &Scrubber{
		t:       t,
		cfg:     cfg,
		reg:     cfg.Metrics,
		tracer:  cfg.Tracer,
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		healing: make(map[core.SiteID]time.Time),
	}
}

// Metrics returns the registry scrub timers and counters land in.
func (s *Scrubber) Metrics() *metrics.Registry { return s.reg }

// Start launches the scrub loop.
func (s *Scrubber) Start() {
	s.startOnce.Do(func() { go s.run() })
}

// Stop halts the scrub loop and blocks until it has exited (an in-flight
// repair batch is allowed to finish, bounded by ExecTimeout). Idempotent;
// safe to call before Start, which then becomes a no-op.
func (s *Scrubber) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.startOnce.Do(func() { close(s.done) }) // never started: nothing to wait out
	<-s.done
}

// Kick nudges the loop out of its idle wait — call it after a recovery
// installs a fresh stale set so healing starts immediately.
func (s *Scrubber) Kick() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Stats returns a snapshot of the scrubber's counters.
func (s *Scrubber) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// WaitClean polls until no operational site holds a fail-lock on its own
// copy, or the timeout expires; it reports whether the system came clean.
// Down sites are skipped — their locks are correct state the scrubber
// must not (and cannot) heal.
func (s *Scrubber) WaitClean(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if n, err := s.remaining(); err == nil && n == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		s.Kick()
		select {
		case <-time.After(s.cfg.Interval):
		case <-s.stop:
			n, err := s.remaining()
			return err == nil && n == 0
		}
	}
}

// remaining counts (item, site) fail-locks operational sites hold on
// their own copies.
func (s *Scrubber) remaining() (int, error) {
	total := 0
	for i := 0; i < s.t.Sites(); i++ {
		st, err := s.t.StatusTimeout(core.SiteID(i), true, s.cfg.ExecTimeout)
		if err != nil {
			return 0, err
		}
		if st.State != core.StatusUp {
			continue
		}
		total += len(ownLocked(st, s.t.Replicas()))
	}
	return total, nil
}

// ownLocked lists the items st's site holds fail-locked on its own copy,
// restricted to the items it hosts: a bit for a non-hosted copy is not
// repairable by reading there (the demand-copier path only refreshes
// hosted copies) and the audit flags it as stray instead.
func ownLocked(st *msg.StatusResp, replicas *core.ReplicaMap) []core.ItemID {
	var out []core.ItemID
	for item, bits := range st.FailLocks {
		if bits&(1<<st.Site) != 0 && replicas.IsHost(core.ItemID(item), st.Site) {
			out = append(out, core.ItemID(item))
		}
	}
	return out
}

// run is the scrub loop: pass, then sleep Interval when the pass found
// nothing to repair (or everything it tried was stuck), else go again.
func (s *Scrubber) run() {
	defer close(s.done)
	p := &pacer{rate: s.cfg.Rate, burst: float64(s.cfg.BatchSize), avail: float64(s.cfg.BatchSize), last: time.Now()}
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		progressed := s.pass(p)
		if progressed {
			continue
		}
		select {
		case <-s.stop:
			return
		case <-s.kick:
		case <-time.After(s.cfg.Interval):
		}
	}
}

// pass scans every site once and repairs what it finds, reporting whether
// any repair batch committed.
func (s *Scrubber) pass(p *pacer) (progressed bool) {
	start := time.Now()
	scanned := 0
	for i := 0; i < s.t.Sites(); i++ {
		select {
		case <-s.stop:
			return progressed
		default:
		}
		id := core.SiteID(i)
		st, err := s.t.StatusTimeout(id, true, s.cfg.ExecTimeout)
		if err != nil {
			continue // manager link hiccup or dead process; next pass retries
		}
		if st.State != core.StatusUp {
			// A site that failed again mid-episode: its episode ends when
			// it next recovers and heals, measured from that recovery.
			s.mu.Lock()
			delete(s.healing, id)
			s.mu.Unlock()
			continue
		}
		locked := ownLocked(st, s.t.Replicas())
		scanned += len(locked)
		if len(locked) == 0 {
			s.finishEpisode(id)
			continue
		}
		s.beginEpisode(id)
		if s.repair(id, locked, p) {
			progressed = true
		}
	}
	s.mu.Lock()
	s.stats.Passes++
	seq := s.passSeq
	s.passSeq++
	s.mu.Unlock()
	s.reg.Observe(TimerPass, time.Since(start))
	if s.tracer != nil {
		s.tracer.Emit(trace.ID(passTraceBase+seq), core.ManagingSite, trace.PhaseScrub,
			fmt.Sprintf("locked=%d", scanned), start)
	}
	return progressed
}

// repair issues rate-limited read batches over the site's fail-locked
// items; a committed batch has demand-refreshed (or found already fresh)
// every item it read. It reports whether any batch committed.
func (s *Scrubber) repair(id core.SiteID, locked []core.ItemID, p *pacer) (progressed bool) {
	for lo := 0; lo < len(locked); lo += s.cfg.BatchSize {
		hi := lo + s.cfg.BatchSize
		if hi > len(locked) {
			hi = len(locked)
		}
		chunk := locked[lo:hi]
		if !s.pace(p, len(chunk)) {
			return progressed // stopping
		}
		ops := make([]core.Op, 0, len(chunk))
		for _, item := range chunk {
			ops = append(ops, core.Read(item))
		}
		batchStart := time.Now()
		res, err := s.t.ExecTxnTimeout(id, s.nextTxnID(), ops, s.cfg.ExecTimeout)
		s.reg.Observe(TimerBatch, time.Since(batchStart))
		s.mu.Lock()
		s.stats.Batches++
		switch {
		case err != nil:
			// The site failed (or was cut off) under the batch; leave the
			// rest of its backlog to a later pass.
			s.stats.Errors++
			s.mu.Unlock()
			return progressed
		case res.Committed:
			s.stats.ItemsScrubbed += len(chunk)
			s.stats.Copiers += int(res.Copiers)
			s.mu.Unlock()
			s.reg.Add(CounterItems, uint64(len(chunk)))
			s.reg.Add(CounterCopiers, uint64(res.Copiers))
			progressed = true
		default:
			// Aborted — no donor reachable yet, or a foreground lock
			// conflict. Both retriable; both better served by backing off
			// to the next pass than by hammering this site.
			s.stats.Aborts++
			s.mu.Unlock()
			return progressed
		}
	}
	return progressed
}

// pace blocks until the token bucket can afford n more items (or the
// scrubber is stopping, reporting false).
func (s *Scrubber) pace(p *pacer, n int) bool {
	if s.cfg.Rate <= 0 {
		return true
	}
	wait := p.take(n)
	if wait <= 0 {
		return true
	}
	s.mu.Lock()
	s.stats.Throttles++
	s.mu.Unlock()
	select {
	case <-time.After(wait):
		return true
	case <-s.stop:
		return false
	}
}

// nextTxnID allocates a scrub transaction ID from the scrubber's private
// space above txnIDBase.
func (s *Scrubber) nextTxnID() core.TxnID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.txnSeq++
	return core.TxnID(txnIDBase + s.txnSeq)
}

// beginEpisode marks the start of a site's heal episode, once.
func (s *Scrubber) beginEpisode(id core.SiteID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.healing[id]; !ok {
		s.healing[id] = time.Now()
	}
}

// finishEpisode closes a site's heal episode, if one was open, and
// records its duration.
func (s *Scrubber) finishEpisode(id core.SiteID) {
	s.mu.Lock()
	began, ok := s.healing[id]
	if ok {
		delete(s.healing, id)
		d := time.Since(began)
		s.stats.HealEpisodes++
		s.stats.LastHealTime = d
		if d > s.stats.MaxHealTime {
			s.stats.MaxHealTime = d
		}
	}
	s.mu.Unlock()
	if ok {
		s.reg.Observe(TimerHeal, time.Since(began))
	}
}

// pacer is the items/sec token bucket. Not safe for concurrent use; the
// scrub loop owns it.
type pacer struct {
	rate  float64 // tokens per second
	burst float64 // bucket capacity
	avail float64
	last  time.Time
}

// take withdraws n tokens, returning how long the caller must wait before
// proceeding (zero when the budget covers it now). The bucket may go
// negative — the debt is the wait.
func (p *pacer) take(n int) time.Duration {
	now := time.Now()
	p.avail += now.Sub(p.last).Seconds() * p.rate
	if p.avail > p.burst {
		p.avail = p.burst
	}
	p.last = now
	p.avail -= float64(n)
	if p.avail >= 0 {
		return 0
	}
	return time.Duration(-p.avail / p.rate * float64(time.Second))
}
