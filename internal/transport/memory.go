package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
	"minraid/internal/trace"
	"minraid/internal/wire"
)

// MemoryConfig configures an in-process network.
type MemoryConfig struct {
	// Sites is the number of database sites (0..Sites-1). An endpoint for
	// the managing site exists in addition.
	Sites int
	// Delay is the fixed per-message inter-site communication cost. The
	// paper measured nine milliseconds per communication on its hardware
	// (§2.1); zero measures pure protocol cost.
	Delay time.Duration
}

// Memory is an in-process Network. Messages are serialized through the
// wire codec and deserialized again on send, so sites share no mutable
// state — the same isolation real processes would have — and every
// experiment exercises the real encoding path ("real transaction
// processing on real sites with real message passing").
//
// A message costs one buffer: Send encodes into a reused encoder and hands
// msg.Unmarshal an exact-size copy of the bytes, which the delivered
// envelope then owns — its write values are views into that copy. The
// sender keeps its envelope and body; the receiver's share nothing with
// them.
//
// The network runs no goroutine of its own: Send puts the decoded envelope
// into the destination's inbox on the sender's goroutine, and the inbox
// holds it until Delay after that moment, or after a chaotic link's due
// time (see queue): one hand-off, sender to receiver. An inbox releases
// messages in due-time order, and a link's dues never decrease, so each
// (sender, receiver) link stays in order — the paper's ordered-reliable-
// messaging assumption. Sends to different destinations share nothing but
// read-only tables, so independent links proceed in parallel, as Ethernet
// or the Unix IPC of the original system would.
type Memory struct {
	cfg MemoryConfig
	// eps holds every site's endpoint, the managing site's last. It is
	// built by NewMemory and never resized, so Send reads it without a
	// lock.
	eps []*memEndpoint

	closed atomic.Bool
	sent   atomic.Uint64
	tracer atomic.Pointer[trace.Recorder]
}

// NewMemory returns an in-process network for cfg.
func NewMemory(cfg MemoryConfig) *Memory {
	if cfg.Sites <= 0 || cfg.Sites > core.MaxSites {
		panic(fmt.Sprintf("transport: site count %d out of range", cfg.Sites))
	}
	n := cfg.Sites + 1
	m := &Memory{cfg: cfg, eps: make([]*memEndpoint, n)}
	for i := range m.eps {
		m.eps[i] = &memEndpoint{
			id:    slotSite(i, cfg.Sites),
			net:   m,
			inbox: newDelayQueue[*msg.Envelope](cfg.Delay),
		}
	}
	return m
}

// slot returns id's index into eps, or ok=false if the network has no such
// site.
func (m *Memory) slot(id core.SiteID) (slot int, ok bool) { return siteSlot(id, m.cfg.Sites) }

// Endpoint implements Network.
func (m *Memory) Endpoint(id core.SiteID) (Endpoint, error) {
	slot, ok := m.slot(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSite, id)
	}
	if m.closed.Load() {
		return nil, ErrClosed
	}
	return m.eps[slot], nil
}

// Close implements Network. It does not wait for messages still inside
// their Delay; they are discarded with the network.
func (m *Memory) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	for _, ep := range m.eps {
		ep.inbox.close()
	}
	return nil
}

// MessagesSent returns the total number of messages accepted for delivery
// since the network was created. Experiments use it to report message
// complexity alongside elapsed time. A nil Memory has sent nothing, which
// is what a cluster on another wire reports.
func (m *Memory) MessagesSent() uint64 {
	if m == nil {
		return 0
	}
	return m.sent.Load()
}

// SetTracer installs a recorder that counts outbound messages per wire
// kind. A nil recorder disables counting.
func (m *Memory) SetTracer(r *trace.Recorder) { m.tracer.Store(r) }

// encoders recycles the memory wire's encoders. One that grew past
// maxPooledEncoder (a fail-lock snapshot, a dump) is left to the collector
// rather than pinned in the pool for the next small message.
var encoders = sync.Pool{New: func() any { return wire.NewEncoder(256) }}

const maxPooledEncoder = 64 << 10

type memEndpoint struct {
	id    core.SiteID
	net   *Memory
	inbox *queue[*msg.Envelope]
}

// ID implements Endpoint.
func (ep *memEndpoint) ID() core.SiteID { return ep.id }

// Send implements Endpoint: encode, decode, and hand the copy to the
// destination's inbox, all on the caller's goroutine. The decoded copy
// owns the one buffer the message costs.
func (ep *memEndpoint) Send(env *msg.Envelope) error { return ep.sendAt(env, time.Time{}) }

// sendAt is Send with the copy held in the inbox until due, plus Delay.
func (ep *memEndpoint) sendAt(env *msg.Envelope, due time.Time) error {
	m := ep.net
	to, ok := m.slot(env.To)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownSite, env.To)
	}
	env.From = ep.id
	m.tracer.Load().CountMessage(env.Body.Kind())
	if m.closed.Load() {
		return ErrClosed
	}
	enc := encoders.Get().(*wire.Encoder)
	enc.Reset()
	msg.MarshalTo(enc, env)
	buf := make([]byte, enc.Len())
	copy(buf, enc.Bytes())
	if cap(enc.Bytes()) <= maxPooledEncoder {
		encoders.Put(enc)
	}
	decoded, err := msg.Unmarshal(buf)
	if err != nil {
		// A memory link cannot corrupt data; an error here is a
		// programming bug in the codec and must be loud.
		panic(fmt.Sprintf("transport: undecodable message on memory link: %v", err))
	}
	// Count only messages the inbox actually accepted: a push that lost the
	// race with Close, or went to a site that has detached, is dropped and
	// must not inflate the experiments' message-complexity columns.
	if m.eps[to].inbox.pushAt(decoded, due) {
		m.sent.Add(1)
	}
	return nil
}

// Recv implements Endpoint.
func (ep *memEndpoint) Recv() (*msg.Envelope, bool) { return ep.inbox.pop() }

// Close implements Endpoint.
func (ep *memEndpoint) Close() error {
	ep.inbox.close()
	return nil
}
