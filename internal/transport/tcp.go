package transport

import (
	"fmt"
	"net"
	"sync"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
	"minraid/internal/trace"
	"minraid/internal/wire"
)

// frameEnvelope is the frame kind byte used for protocol envelopes.
const frameEnvelope byte = 0

// TCPConfig configures one site's attachment to a TCP network, for the
// multi-process deployment (cmd/raidsrv): one OS process per site, as in
// the original RAID system before it was stripped down.
type TCPConfig struct {
	// Self is the local site.
	Self core.SiteID
	// Addrs maps every site (including the managing site) to its TCP
	// address. The local entry is the listen address.
	Addrs map[core.SiteID]string
	// DialTimeout bounds one connection attempt. Default 2s.
	DialTimeout time.Duration
	// RetryInterval is the pause between reconnection attempts. Default
	// 200ms.
	RetryInterval time.Duration
	// MaxRetries bounds delivery attempts per message before it is
	// dropped (the destination is down; the protocol's timeouts handle
	// the rest). Values <= 0 select the default of 10; to disable
	// retries set DisableRetry.
	MaxRetries int
	// DisableRetry makes every message get exactly one delivery attempt,
	// overriding MaxRetries. (MaxRetries cannot express this: its zero
	// value means "default".)
	DisableRetry bool
	// Tracer, when non-nil, counts outbound messages per wire kind.
	Tracer *trace.Recorder
}

func (c *TCPConfig) fillDefaults() {
	if c.DialTimeout == 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.RetryInterval == 0 {
		c.RetryInterval = 200 * time.Millisecond
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 10
	}
	if c.DisableRetry {
		c.MaxRetries = 1
	}
}

// TCP is a Network hosting exactly one endpoint (the local site) and
// reaching every other site over TCP. Messages are CRC-framed (see
// internal/wire); per-peer ordering comes from a single writer goroutine
// per destination and TCP's own ordering; duplicate suppression on
// reconnect comes from remembering each sender's recent sequence numbers.
type TCP struct {
	cfg      TCPConfig
	listener net.Listener
	ep       *tcpEndpoint

	mu      sync.Mutex
	writers map[core.SiteID]*tcpWriter
	conns   map[net.Conn]bool
	recent  map[core.SiteID]*recentSeqs
	closed  bool
	wg      sync.WaitGroup
}

// NewTCP starts the local listener and returns the network attachment.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	cfg.fillDefaults()
	addr, ok := cfg.Addrs[cfg.Self]
	if !ok {
		return nil, fmt.Errorf("transport: no address for local %s", cfg.Self)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t := &TCP{
		cfg:      cfg,
		listener: ln,
		writers:  make(map[core.SiteID]*tcpWriter),
		conns:    make(map[net.Conn]bool),
		recent:   make(map[core.SiteID]*recentSeqs),
	}
	t.ep = &tcpEndpoint{id: cfg.Self, net: t, inbox: newQueue[*msg.Envelope]()}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the actual listen address (useful with ":0" test configs).
func (t *TCP) Addr() string { return t.listener.Addr().String() }

// SetAddr installs or updates a peer's address. Useful when listeners bind
// ephemeral ports first and the full map is distributed afterwards. It has
// no effect on a peer whose outbound writer has already been created.
func (t *TCP) SetAddr(id core.SiteID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cfg.Addrs[id] = addr
}

// Endpoint implements Network. Only the local site's endpoint exists.
func (t *TCP) Endpoint(id core.SiteID) (Endpoint, error) {
	if id != t.cfg.Self {
		return nil, fmt.Errorf("%w: %s is not local", ErrUnknownSite, id)
	}
	return t.ep, nil
}

// Close implements Network.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for _, w := range t.writers {
		w.q.close()
	}
	for c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
	t.listener.Close()
	t.wg.Wait()
	t.ep.inbox.close()
	return nil
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = true
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop consumes frames from one inbound connection until it errors.
func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()
	for {
		kind, payload, err := wire.ReadFrame(conn)
		if err != nil {
			return // includes EOF on orderly close and checksum errors
		}
		if kind != frameEnvelope {
			return // unknown frame kind: protocol violation, drop conn
		}
		env, err := msg.Unmarshal(payload)
		if err != nil {
			return
		}
		if t.dedup(env) {
			continue
		}
		t.ep.inbox.push(env)
	}
}

// recentSeqs remembers the last sequence numbers delivered from one
// sender. A reconnect duplicate is always recent: a writer retransmits
// only the frame in hand, so the copy arrives first on the new connection,
// adjacent in sender order to the original.
type recentSeqs struct {
	ring [64]uint64
	next int
}

// dedup reports whether env is a duplicate of a message already delivered
// from env.From. Sequence numbers are unique per sender but need not
// arrive increasing — a caller allocates the number before it enqueues the
// message, so concurrent callers (interleaved transactions, a paced
// managing site) can enqueue out of order — so a duplicate is a number
// seen recently, not a number below the high-water mark.
func (t *TCP) dedup(env *msg.Envelope) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.recent[env.From]
	if r == nil {
		r = &recentSeqs{}
		t.recent[env.From] = r
	}
	for _, seq := range r.ring {
		if seq == env.Seq {
			return true
		}
	}
	r.ring[r.next] = env.Seq
	r.next = (r.next + 1) % len(r.ring)
	return false
}

// writerFor returns the single outbound writer for peer, creating it on
// first use.
func (t *TCP) writerFor(peer core.SiteID) (*tcpWriter, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if w, ok := t.writers[peer]; ok {
		return w, nil
	}
	addr, ok := t.cfg.Addrs[peer]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSite, peer)
	}
	w := &tcpWriter{net: t, addr: addr, q: newQueue[[]byte]()}
	t.writers[peer] = w
	t.wg.Add(1)
	go w.run()
	return w, nil
}

// tcpWriter owns the outbound connection to one peer and writes queued
// messages in order, reconnecting on failure.
type tcpWriter struct {
	net  *TCP
	addr string
	q    *queue[[]byte]
	conn net.Conn
}

func (w *tcpWriter) run() {
	defer w.net.wg.Done()
	defer func() {
		if w.conn != nil {
			w.conn.Close()
		}
	}()
	for {
		buf, ok := w.q.pop()
		if !ok {
			return
		}
		w.writeWithRetry(buf)
	}
}

// writeWithRetry attempts to deliver one message, redialing between
// attempts. After MaxRetries failures the message is dropped: the peer is
// down, and the replicated-copy-control protocol detects that by ack
// timeout and runs a type-2 control transaction.
func (w *tcpWriter) writeWithRetry(buf []byte) {
	for attempt := 0; attempt < w.net.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(w.net.cfg.RetryInterval)
		}
		if w.conn == nil {
			conn, err := net.DialTimeout("tcp", w.addr, w.net.cfg.DialTimeout)
			if err != nil {
				continue
			}
			w.conn = conn
		}
		if err := wire.WriteFrame(w.conn, frameEnvelope, buf); err != nil {
			w.conn.Close()
			w.conn = nil
			continue
		}
		return
	}
}

type tcpEndpoint struct {
	id    core.SiteID
	net   *TCP
	inbox *queue[*msg.Envelope]
}

// ID implements Endpoint.
func (ep *tcpEndpoint) ID() core.SiteID { return ep.id }

// Send implements Endpoint.
func (ep *tcpEndpoint) Send(env *msg.Envelope) error { return ep.sendAt(env, time.Time{}) }

// sendAt is Send with the message held until due: in the peer's writer
// queue, so the socket write happens then, or in the inbox on loopback.
func (ep *tcpEndpoint) sendAt(env *msg.Envelope, due time.Time) error {
	env.From = ep.id
	ep.net.cfg.Tracer.CountMessage(env.Body.Kind())
	if env.To == ep.id {
		// Loopback without touching the socket layer, but still through
		// the codec for isolation.
		buf := msg.Marshal(env)
		decoded, err := msg.Unmarshal(buf)
		if err != nil {
			return err
		}
		if !ep.net.dedup(decoded) {
			ep.inbox.pushAt(decoded, due)
		}
		return nil
	}
	w, err := ep.net.writerFor(env.To)
	if err != nil {
		return err
	}
	if !w.q.pushAt(msg.Marshal(env), due) {
		return ErrClosed
	}
	return nil
}

// Recv implements Endpoint.
func (ep *tcpEndpoint) Recv() (*msg.Envelope, bool) { return ep.inbox.pop() }

// Close implements Endpoint.
func (ep *tcpEndpoint) Close() error { return ep.net.Close() }

// ensure interface satisfaction.
var (
	_ Network      = (*Memory)(nil)
	_ Network      = (*TCP)(nil)
	_ wireEndpoint = (*memEndpoint)(nil)
	_ wireEndpoint = (*tcpEndpoint)(nil)
)
