package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
)

// ChaosConfig parameterizes a Chaos network decorator. The zero value of
// every fault field is "off": a config with Drop, Dup and MaxJitter all
// zero is a byte-for-byte pass-through of the inner network.
type ChaosConfig struct {
	// Seed determines every fault decision. Each directed link derives its
	// own rand.Source from (Seed, from, to), so the decision taken for the
	// k-th message on a link is a pure function of (Seed, config, from, to,
	// k): a run is exactly reproducible from its seed, and faults on one
	// link do not perturb the decision stream of another.
	Seed int64
	// Drop is the per-message probability a message silently disappears.
	Drop float64
	// Dup is the per-message probability a delivered message is delivered
	// twice (back to back, in order — the at-least-once behavior a
	// retransmitting transport exhibits).
	Dup float64
	// MaxJitter bounds the extra latency injected per delivered message:
	// each message is held for a uniform duration in [0, MaxJitter].
	// Per-link FIFO order is preserved — jitter delays messages, it never
	// reorders them.
	MaxJitter time.Duration
	// Links overrides the fault parameters per directed link. A link with
	// an entry uses exactly that entry; a link without one uses the global
	// Drop/Dup/MaxJitter fields. This is how WAN profiles give
	// every region pair its own latency and bandwidth while the rng
	// seeding stays per-link as before.
	Links map[LinkID]LinkChaos
	// ExemptManager leaves links to and from the managing site untouched.
	// The managing site is the experimenter's out-of-band console (§1.2);
	// soak runs keep its control and measurement channel reliable while
	// the inter-site protocol links misbehave.
	ExemptManager bool
}

// LinkChaos is one directed link's fault parameters, used as a per-link
// override of the global ChaosConfig fields.
type LinkChaos struct {
	// Drop and Dup are per-message probabilities, as in ChaosConfig.
	Drop float64
	Dup  float64
	// BaseDelay is the deterministic propagation floor: every delivered
	// message is held for BaseDelay plus its jitter draw. It burns no rng
	// draw and is not counted in JitterTotal, so the jitter fingerprint
	// stays an exact record of the rng stream. MaxJitter bounds the seeded
	// extra hold on top of it.
	BaseDelay time.Duration
	MaxJitter time.Duration
	// PerMsgCost is the wire occupancy per message — a serialization
	// (bandwidth) cost. The link transmits at most one message per
	// PerMsgCost: unlike BaseDelay, which pipelines (messages in flight
	// overlap), serialization time is paid back to back, so fan-out
	// bursts on a thin link queue behind each other. Deterministic, no
	// rng draw, not counted in JitterTotal.
	PerMsgCost time.Duration
}

// active reports whether the link config injects any fault at all.
func (lc LinkChaos) active() bool {
	return lc.Drop > 0 || lc.Dup > 0 || lc.MaxJitter > 0 || lc.BaseDelay > 0 || lc.PerMsgCost > 0
}

// Active reports whether the config injects any probabilistic fault at
// all (administrative cuts via SetLinkDown and SetLinkDropAfter work
// regardless).
func (c ChaosConfig) Active() bool {
	if c.Drop > 0 || c.Dup > 0 || c.MaxJitter > 0 {
		return true
	}
	for _, lc := range c.Links {
		if lc.active() {
			return true
		}
	}
	return false
}

// linkChaos resolves the effective fault parameters for one directed
// link: its Links override when present, the global fields otherwise.
func (c ChaosConfig) linkChaos(from, to core.SiteID) LinkChaos {
	if lc, ok := c.Links[LinkID{From: from, To: to}]; ok {
		return lc
	}
	return LinkChaos{Drop: c.Drop, Dup: c.Dup, MaxJitter: c.MaxJitter}
}

// LinkID names one directed link of the network.
type LinkID struct {
	From, To core.SiteID
}

// LinkStats counts one link's chaos decisions. Two runs with the same
// (seed, config) and the same per-link message sequence produce identical
// stats — the reproducibility check soak runs rely on.
type LinkStats struct {
	// Sent counts messages offered to the link.
	Sent uint64
	// Dropped counts messages the link silently discarded.
	Dropped uint64
	// Duplicated counts messages delivered twice.
	Duplicated uint64
	// JitterTotal is the summed injected latency, an exact fingerprint of
	// the link's jitter draws.
	JitterTotal time.Duration
	// Cut counts messages discarded because the link was administratively
	// down (SetLinkDown) or had spent its SetLinkDropAfter budget — the
	// partition scheduler's and the tests' cuts, distinct from
	// probabilistic Dropped. Cut messages never reach the link's rng, so
	// the probabilistic decision stream stays a pure function of the
	// messages that survive the cut.
	Cut uint64
}

// Add folds other into s.
func (s *LinkStats) Add(other LinkStats) {
	s.Sent += other.Sent
	s.Dropped += other.Dropped
	s.Duplicated += other.Duplicated
	s.JitterTotal += other.JitterTotal
	s.Cut += other.Cut
}

// Chaos is the one fault layer, a decorator over any Network: per-directed-
// link administrative cuts and drop-after budgets, and probabilistic
// message drop, duplication and bounded latency jitter, deterministically
// driven by one seeded rand.Source per link.
//
// It deliberately breaks the paper's reliability assumption (§1.2,
// assumption 1: no loss, no duplication) while preserving per-link FIFO
// order, so experiments can measure how the ack-timeout/announce machinery
// behaves when messages actually misbehave. Exempt links (and every link
// when no fault is configured) bypass the probabilistic pipeline and are
// the inner Send, behind the cut and budget checks.
type Chaos struct {
	inner Network
	cfg   ChaosConfig

	// rows is the directed-link table, one row per sender, made when the
	// sender is first named (by Endpoint or a link cut). A row never
	// changes hands once published, so Send reads it without a lock.
	rows [chaosSlots]atomic.Pointer[chaosRow]

	mu     sync.Mutex // guards eps and closed, and serializes making rows and pipelines
	eps    map[core.SiteID]*chaosEndpoint
	closed bool
	wg     sync.WaitGroup
}

// chaosSlots is the side of the link table: every possible database site,
// then the managing site.
const chaosSlots = core.MaxSites + 1

// chaosSlot returns id's index into the link table, or ok=false for an ID
// that can name no site.
func chaosSlot(id core.SiteID) (slot int, ok bool) { return siteSlot(id, core.MaxSites) }

// chaosRow is one sender's links, by destination slot.
type chaosRow [chaosSlots]chaosRoute

// chaosRoute is everything Send needs to know about one directed link,
// resolved once.
type chaosRoute struct {
	down atomic.Bool // administratively cut (SetLinkDown)
	// credits is the number of messages the link still delivers before it
	// cuts everything (SetLinkDropAfter); negative means no limit.
	credits atomic.Int64
	cut     atomic.Uint64 // messages discarded while down or out of credits
	// exempt marks a link that bypasses fault injection: manager links
	// under ExemptManager, and any link whose effective (per-link or
	// global) config injects nothing — so a Links map that touches some
	// links leaves the others byte-for-byte pass-throughs, exactly like a
	// fully inactive config does.
	exempt bool
	// link is the fault pipeline, started by the link's first message.
	link atomic.Pointer[chaosLink]
}

// NewChaos wraps inner with seeded fault injection. Closing the returned
// network closes inner too.
func NewChaos(inner Network, cfg ChaosConfig) *Chaos {
	return &Chaos{inner: inner, cfg: cfg, eps: make(map[core.SiteID]*chaosEndpoint)}
}

// rowLocked returns from's row of the link table, making it on first use;
// slot is from's. Callers hold mu.
func (c *Chaos) rowLocked(from core.SiteID, slot int) *chaosRow {
	if row := c.rows[slot].Load(); row != nil {
		return row
	}
	row := new(chaosRow)
	for t := range row {
		to := slotSite(t, core.MaxSites)
		manager := from == core.ManagingSite || to == core.ManagingSite
		row[t].exempt = c.cfg.ExemptManager && manager || !c.cfg.linkChaos(from, to).active()
		row[t].credits.Store(-1)
	}
	c.rows[slot].Store(row)
	return row
}

// route returns the from->to entry of the link table, making from's row
// on first use, or nil if either end can name no site.
func (c *Chaos) route(from, to core.SiteID) *chaosRoute {
	f, okFrom := chaosSlot(from)
	t, okTo := chaosSlot(to)
	if !okFrom || !okTo {
		return nil
	}
	c.mu.Lock()
	row := c.rowLocked(from, f)
	c.mu.Unlock()
	return &row[t]
}

// SetLinkDown administratively cuts (or restores) the directed link
// from->to. While down, messages offered to the link are discarded at
// Send time — before the chaotic pipeline, so cut traffic burns no rng
// draws and the probabilistic decision stream of the surviving messages
// is unchanged. This is the hook scheduled link events (package
// failure) drive; it works even when no probabilistic fault is configured.
func (c *Chaos) SetLinkDown(from, to core.SiteID, down bool) {
	if r := c.route(from, to); r != nil {
		r.down.Store(down)
	}
}

// SetLinkDropAfter lets the directed link from->to deliver n more messages
// and then cut everything after — fault injection for mid-protocol
// failures (e.g. a participant that acks phase one and vanishes before
// phase two). A negative n removes the limit. Spent messages are counted
// and discarded exactly like SetLinkDown's.
func (c *Chaos) SetLinkDropAfter(from, to core.SiteID, n int) {
	if r := c.route(from, to); r != nil {
		r.credits.Store(int64(max(n, -1)))
	}
}

// admit reports whether the link carries one more message: it is not
// down, and it has a credit to spend if it is limited.
func (r *chaosRoute) admit() bool {
	if r.down.Load() {
		return false
	}
	for {
		c := r.credits.Load()
		if c < 0 {
			return true
		}
		if c == 0 {
			return false
		}
		if r.credits.CompareAndSwap(c, c-1) {
			return true
		}
	}
}

// Endpoint implements Network.
func (c *Chaos) Endpoint(id core.SiteID) (Endpoint, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if ep, ok := c.eps[id]; ok {
		return ep, nil
	}
	inner, err := c.inner.Endpoint(id)
	if err != nil {
		return nil, err
	}
	ep := &chaosEndpoint{net: c, inner: inner}
	if slot, ok := chaosSlot(id); ok {
		ep.row = c.rowLocked(id, slot)
	}
	c.eps[id] = ep
	return ep, nil
}

// Close implements Network: drain the fault pipelines, then close the
// inner network.
func (c *Chaos) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.eachRoute(func(_ LinkID, r *chaosRoute) {
		if l := r.link.Load(); l != nil {
			l.q.close()
		}
	})
	c.mu.Unlock()
	c.wg.Wait()
	return c.inner.Close()
}

// eachRoute calls fn for every link of every row made so far.
func (c *Chaos) eachRoute(fn func(LinkID, *chaosRoute)) {
	for f := range c.rows {
		row := c.rows[f].Load()
		if row == nil {
			continue
		}
		for t := range row {
			fn(LinkID{From: slotSite(f, core.MaxSites), To: slotSite(t, core.MaxSites)}, &row[t])
		}
	}
}

// Stats snapshots the decision counters of every link that was offered a
// message, folding in messages discarded by administrative cuts.
func (c *Chaos) Stats() map[LinkID]LinkStats {
	out := make(map[LinkID]LinkStats)
	c.eachRoute(func(id LinkID, r *chaosRoute) {
		l, cut := r.link.Load(), r.cut.Load()
		if l == nil && cut == 0 {
			return
		}
		s := LinkStats{Sent: cut, Cut: cut}
		if l != nil {
			l.mu.Lock()
			s.Add(l.stats)
			l.mu.Unlock()
		}
		out[id] = s
	})
	return out
}

// startLink returns the fault pipeline of the link r describes, starting
// it (and its forwarder goroutine) if the link has none yet.
func (c *Chaos) startLink(r *chaosRoute, from, to core.SiteID, inner Endpoint) (*chaosLink, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if l := r.link.Load(); l != nil {
		return l, nil
	}
	l := &chaosLink{
		cfg:   c.cfg.linkChaos(from, to),
		rng:   rand.New(rand.NewSource(linkSeed(c.cfg.Seed, from, to))),
		inner: inner,
		q:     newQueue[chaosItem](),
	}
	r.link.Store(l)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		l.run()
	}()
	return l, nil
}

// linkSeed derives a link's rand seed from the network seed and the link's
// endpoints, via a splitmix64-style mix so neighboring links get unrelated
// streams.
func linkSeed(seed int64, from, to core.SiteID) int64 {
	z := uint64(seed) ^ (uint64(from)+1)*0x9E3779B97F4A7C15 ^ (uint64(to)+1)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// chaosItem is one message in a link's fault pipeline.
type chaosItem struct {
	env *msg.Envelope
	at  time.Time // enqueue time; jitter holds relative to this
}

// chaosLink serializes one directed link's messages through its seeded
// decision stream: a single forwarder goroutine pops in FIFO order, draws
// drop/jitter/dup decisions in a fixed order from the link's private rng,
// and forwards survivors to the inner endpoint. Decisions therefore depend
// only on the message's position in the link's send order, never on
// wall-clock timing or cross-link interleaving.
type chaosLink struct {
	cfg   LinkChaos
	rng   *rand.Rand
	inner Endpoint
	q     *queue[chaosItem]

	mu    sync.Mutex
	stats LinkStats
}

func (l *chaosLink) run() {
	for {
		it, ok := l.q.pop()
		if !ok {
			return
		}
		// Fixed decision order: drop, then jitter, then dup. A draw is
		// burned only when its fault is configured, so the stream is a
		// pure function of (seed, config, position).
		var delta LinkStats
		delta.Sent = 1
		dropped := l.cfg.Drop > 0 && l.rng.Float64() < l.cfg.Drop
		var jitter time.Duration
		var dup bool
		if !dropped {
			if l.cfg.MaxJitter > 0 {
				jitter = time.Duration(l.rng.Int63n(int64(l.cfg.MaxJitter) + 1))
				delta.JitterTotal = jitter
			}
			if l.cfg.Dup > 0 && l.rng.Float64() < l.cfg.Dup {
				dup = true
				delta.Duplicated = 1
			}
		} else {
			delta.Dropped = 1
		}
		l.mu.Lock()
		l.stats.Add(delta)
		l.mu.Unlock()
		if dropped {
			continue
		}
		if l.cfg.PerMsgCost > 0 {
			// Serialization: the wire carries one message at a time, so
			// this cost is paid per pop, back to back — a burst of k
			// messages occupies the link for k*PerMsgCost even though
			// propagation below pipelines.
			time.Sleep(l.cfg.PerMsgCost)
		}
		if d := l.cfg.BaseDelay + jitter - time.Since(it.at); d > 0 {
			// Hold until enqueueTime+base+jitter, not base+jitter after the
			// previous delivery: propagation pipelines, FIFO order is kept
			// by the single forwarder.
			time.Sleep(d)
		}
		// Send errors (shutdown races, partitioned inner links) are the
		// inner network's delivery policy; a chaotic link is lossy by
		// construction and has nobody to report them to.
		_ = l.inner.Send(it.env)
		if dup {
			_ = l.inner.Send(it.env)
		}
	}
}

// chaosEndpoint decorates one site's attachment.
type chaosEndpoint struct {
	net   *Chaos
	inner Endpoint
	row   *chaosRow // this site's links; nil if its ID can name no site
}

// ID implements Endpoint.
func (ep *chaosEndpoint) ID() core.SiteID { return ep.inner.ID() }

// Send implements Endpoint. On an exempt link it is the inner Send,
// byte-for-byte; on a chaotic link the message enters the link's fault
// pipeline and Send reports acceptance, with delivery best-effort from
// there on — exactly the contract a lossy wire offers.
func (ep *chaosEndpoint) Send(env *msg.Envelope) error {
	to, ok := chaosSlot(env.To)
	if !ok || ep.row == nil {
		return ep.inner.Send(env) // no such link: the inner network's error to report
	}
	r := &ep.row[to]
	// Administrative cuts and budgets apply before exemption: a cut link
	// drops everything even when no probabilistic fault is configured.
	// Send still reports acceptance — a cut wire is silence, not an
	// error the sender can observe.
	if !r.admit() {
		r.cut.Add(1)
		return nil
	}
	if r.exempt {
		return ep.inner.Send(env)
	}
	l := r.link.Load()
	if l == nil {
		var err error
		if l, err = ep.net.startLink(r, ep.inner.ID(), env.To, ep.inner); err != nil {
			return err
		}
	}
	if !l.q.push(chaosItem{env: env, at: time.Now()}) {
		return ErrClosed
	}
	return nil
}

// Recv implements Endpoint.
func (ep *chaosEndpoint) Recv() (*msg.Envelope, bool) { return ep.inner.Recv() }

// Close implements Endpoint.
func (ep *chaosEndpoint) Close() error { return ep.inner.Close() }

var _ Network = (*Chaos)(nil)
