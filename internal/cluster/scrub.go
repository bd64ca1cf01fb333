package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
	"minraid/internal/trace"
)

// scrubTxnBase offsets the scrubber's transaction IDs. Foreground
// transactions number from 1 (or the soak's TxnIDBase) and admin traces
// live at trace.AdminBase (1<<32); the scrubber draws from its own
// disjoint space so background repairs never perturb the foreground
// numbering that reproducibility checks fingerprint.
const scrubTxnBase = uint64(3) << 32

// scrubTraceBase offsets per-pass trace span IDs, disjoint from both
// transaction IDs (including the scrubber's own) and admin trace IDs.
const scrubTraceBase = uint64(4) << 32

// errScrubStopped ends a heal step whose pacing wait was cut short by Stop.
var errScrubStopped = errors.New("cluster: scrubber stopped")

// ScrubConfig parameterizes a Scrubber.
type ScrubConfig struct {
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
	// crashed process) costs the scrubber a bounded stall (default 2s).
	// Keep it above the cluster's ack timeout: the repair itself may
	// legitimately wait out a failure detection.
	ExecTimeout time.Duration
}

func (c *ScrubConfig) fillDefaults() {
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	if c.Interval <= 0 {
		c.Interval = 25 * time.Millisecond
	}
	if c.ExecTimeout <= 0 {
		c.ExecTimeout = 2 * time.Second
	}
}

// ScrubStats is a snapshot of the scrubber's counters.
type ScrubStats struct {
	// Passes counts completed scans over every site.
	Passes int
	// ItemsScrubbed counts items read under committed repair batches —
	// each is clean once its batch commits. Copiers counts the copier
	// transactions the batches ran (fewer when demand copiers or
	// foreground commits got there first).
	ItemsScrubbed, Copiers int
	// Throttles counts rate-budget waits.
	Throttles int
}

// Scrubber is continuous heal: a background loop that runs the heal step
// over every operational site's fail-locked items in rate-limited batches
// while foreground traffic continues — a pacemaker for the copier
// machinery the paper already defines, in the mold of an mdadm/ZFS scrub.
// Every recovery is operational the moment its type-1 control transaction
// installs the fail-lock set; the scrubber grinds that stale set to zero
// at a configurable items/sec budget instead of leaving it to demand
// copiers or an epilogue drain.
//
// Create with NewScrubber, then Start; Stop halts the loop and waits for
// any in-flight batch.
type Scrubber struct {
	m   *Manager
	cfg ScrubConfig

	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	startOnce, stopOnce sync.Once

	mu    sync.Mutex
	stats ScrubStats
}

// NewScrubber builds a scrubber over m. It does not start scrubbing until
// Start.
func NewScrubber(m *Manager, cfg ScrubConfig) *Scrubber {
	cfg.fillDefaults()
	return &Scrubber{
		m:    m,
		cfg:  cfg,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

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
func (s *Scrubber) Stats() ScrubStats {
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
		if s.clean() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		s.Kick()
		select {
		case <-time.After(s.cfg.Interval):
		case <-s.stop:
			return s.clean()
		}
	}
}

func (s *Scrubber) clean() bool {
	n, err := s.m.FailLocksRemaining(nil, s.cfg.ExecTimeout)
	return err == nil && n == 0
}

// run is the scrub loop: pass, then sleep Interval when the pass healed
// nothing (or everything it tried was stuck), else go again. The loop owns
// the token bucket and the private transaction numbering.
func (s *Scrubber) run() {
	defer close(s.done)
	p := &pacer{rate: s.cfg.Rate, burst: float64(s.cfg.BatchSize), avail: float64(s.cfg.BatchSize), last: time.Now()}
	var txnSeq uint64
	exec := func(at core.SiteID, ops []core.Op) (*msg.TxnResult, error) {
		if !s.pace(p, len(ops)) {
			return nil, errScrubStopped
		}
		txnSeq++
		return s.m.ExecTxnTimeout(at, core.TxnID(scrubTxnBase+txnSeq), ops, s.cfg.ExecTimeout)
	}
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		if s.pass(exec) {
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

// pass runs the heal step once at every site, reporting whether any repair
// batch committed.
func (s *Scrubber) pass(exec healExec) (progressed bool) {
	start := time.Now()
	scanned := 0
	for i := 0; i < s.m.Sites(); i++ {
		select {
		case <-s.stop:
			return progressed
		default:
		}
		// An error — a manager-link hiccup, a crashed process, the site
		// failing under a batch, Stop — leaves the rest of this site's
		// backlog to a later pass.
		h, _ := s.m.healSite(core.SiteID(i), s.cfg.ExecTimeout, s.cfg.BatchSize, exec)
		scanned += h.locked
		progressed = progressed || h.healed > 0
		s.mu.Lock()
		s.stats.ItemsScrubbed += h.healed
		s.stats.Copiers += h.copiers
		s.mu.Unlock()
	}
	s.mu.Lock()
	seq := uint64(s.stats.Passes)
	s.stats.Passes++
	s.mu.Unlock()
	s.m.Tracer().Emit(trace.ID(scrubTraceBase+seq), core.ManagingSite, trace.PhaseScrub,
		fmt.Sprintf("locked=%d", scanned), start)
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
