package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
)

// Caller errors.
var (
	// ErrTimeout is returned when no reply arrives within the ack
	// timeout. The protocol treats it as evidence the callee failed.
	ErrTimeout = errors.New("transport: call timed out")
	// ErrCancelled is returned to callers when CancelAll runs — the local
	// site failed (or shut down) with the call in flight.
	ErrCancelled = errors.New("transport: call cancelled")
)

// Caller layers request/response correlation over an Endpoint: it assigns
// sequence numbers, matches replies to pending calls, and enforces the ack
// timeout that the replicated-copy-control protocol uses to detect site
// failures.
//
// The owner's receive loop must offer every inbound reply to Deliver; other
// messages are handled by the owner directly.
type Caller struct {
	ep      Endpoint
	timeout time.Duration
	seq     atomic.Uint64
	sent    atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan delivered
}

// delivered carries a reply together with the moment Deliver accepted it,
// so a multicast can report per-target round-trip times even though its
// slots are drained serially after the fan-out.
type delivered struct {
	env *msg.Envelope
	at  time.Time
}

// NewCaller wraps ep with the given call timeout.
//
// Sequence numbers are seeded from the wall clock: the TCP transport
// suppresses reconnect duplicates by remembering each sender's recent
// sequence numbers, and a restarted process (a new raidctl invocation, a
// rebooted raidsrv) must not reuse the numbers its predecessor burned.
func NewCaller(ep Endpoint, timeout time.Duration) *Caller {
	c := &Caller{ep: ep, timeout: timeout, pending: make(map[uint64]chan delivered)}
	c.seq.Store(uint64(time.Now().UnixNano()))
	return c
}

// Sent returns the number of messages sent through this caller.
func (c *Caller) Sent() uint64 { return c.sent.Load() }

// Timeout returns the configured call timeout.
func (c *Caller) Timeout() time.Duration { return c.timeout }

// Send transmits a fire-and-forget message.
func (c *Caller) Send(to core.SiteID, body msg.Body) error {
	return c.SendT(0, to, body)
}

// SendT is Send with a trace ID stamped on the envelope.
func (c *Caller) SendT(trace uint64, to core.SiteID, body msg.Body) error {
	c.sent.Add(1)
	return c.ep.Send(&msg.Envelope{To: to, Seq: c.seq.Add(1), Trace: trace, Body: body})
}

// Reply transmits a response correlated to req. The request's trace ID
// is carried back on the reply so both directions of an exchange belong
// to the same span.
func (c *Caller) Reply(req *msg.Envelope, body msg.Body) error {
	c.sent.Add(1)
	return c.ep.Send(&msg.Envelope{To: req.From, Seq: c.seq.Add(1), ReplyTo: req.Seq, Trace: req.Trace, Body: body})
}

// Call sends body to to and waits for the correlated reply.
func (c *Caller) Call(to core.SiteID, body msg.Body) (*msg.Envelope, error) {
	return c.CallT(0, to, body)
}

// CallT is Call with a trace ID stamped on the request envelope.
func (c *Caller) CallT(trace uint64, to core.SiteID, body msg.Body) (*msg.Envelope, error) {
	return c.CallTimeoutT(trace, to, body, c.timeout)
}

// CallTimeoutT is CallT with an explicit reply deadline overriding the
// caller's configured timeout for this one call. Background work (the
// scrubber's repair batches) uses it so a call racing a site failure
// costs a bounded wait instead of the full configured timeout.
func (c *Caller) CallTimeoutT(trace uint64, to core.SiteID, body msg.Body, timeout time.Duration) (*msg.Envelope, error) {
	seq, ch := c.register()
	defer c.unregister(seq)
	c.sent.Add(1)
	if err := c.ep.Send(&msg.Envelope{To: to, Seq: seq, Trace: trace, Body: body}); err != nil {
		return nil, err
	}
	dl := deadline{timer: time.NewTimer(timeout)}
	defer dl.timer.Stop()
	d, err := c.await(ch, &dl)
	if err == nil {
		replyChans.Put(ch)
	}
	return d.env, err
}

// Outcall is one request of an error-reporting multicast: a destination
// and the body to send it.
type Outcall struct {
	To   core.SiteID
	Body msg.Body
}

// Outcalls builds a uniform Outcall slice: one request per target, with
// bodies produced by mk.
func Outcalls(targets []core.SiteID, mk func(core.SiteID) msg.Body) []Outcall {
	calls := make([]Outcall, len(targets))
	for i, id := range targets {
		calls[i] = Outcall{To: id, Body: mk(id)}
	}
	return calls
}

// CallResult is one slot's outcome in a MulticastT fan-out.
type CallResult struct {
	// To is the slot's destination, copied from the Outcall.
	To core.SiteID
	// Reply is the correlated reply; nil exactly when Err is non-nil.
	Reply *msg.Envelope
	// Err is nil on success; otherwise the send error (the request never
	// left this site), ErrTimeout (the target stayed silent past the
	// shared deadline — the protocol's evidence of its failure), or
	// ErrCancelled (the local site failed with the fan-out in flight).
	Err error
	// RTT is the fan-out-start-to-reply-delivery latency, set on success.
	RTT time.Duration
}

// MulticastT sends every call concurrently and reports a per-slot outcome
// — the reply, or an error distinguishing send failure from timeout from
// cancellation — under one shared deadline: with k unresponsive targets
// the whole fan-out costs ~1 ack timeout, not k. Results align with calls,
// so duplicate destinations are well-defined (each slot gets its own
// correlated reply).
func (c *Caller) MulticastT(trace uint64, calls []Outcall) []CallResult {
	f := c.send(trace, calls)
	dl := deadline{timer: time.NewTimer(c.timeout)}
	defer dl.timer.Stop()
	return c.collect(f, &dl)
}

// MulticastAsyncT sends every call like MulticastT but returns as soon as
// the requests are on the wire; the returned join function collects the
// per-slot outcomes under the shared deadline, which starts at send time.
// Phase two uses it to send the commits inside its lock hold and await
// the acks after releasing it; an epoch flush also releases its
// transaction results in between, collecting the acks (and detecting lost
// participants) off the critical path. join must be called exactly once;
// the registered slots leak otherwise.
func (c *Caller) MulticastAsyncT(trace uint64, calls []Outcall) func() []CallResult {
	f := c.send(trace, calls)
	dl := deadline{timer: time.NewTimer(c.timeout)}
	return func() []CallResult {
		defer dl.timer.Stop()
		return c.collect(f, &dl)
	}
}

// fanout is a multicast in flight: the per-slot results, each slot's
// registered call (a nil channel once its send failed), and the send time
// replies' RTTs count from.
type fanout struct {
	out   []CallResult
	calls []pendingCall
	start time.Time
}

// pendingCall is one registered call: its sequence number and the channel
// its reply arrives on.
type pendingCall struct {
	seq uint64
	ch  chan delivered
}

// send registers and transmits every call. A request that never left fails
// its slot at once: no reply can ever arrive, so it must not burn the
// shared deadline.
func (c *Caller) send(trace uint64, calls []Outcall) fanout {
	f := fanout{
		out:   make([]CallResult, len(calls)),
		calls: make([]pendingCall, len(calls)),
		start: time.Now(),
	}
	for i, call := range calls {
		f.out[i].To = call.To
		seq, ch := c.register()
		c.sent.Add(1)
		if err := c.ep.Send(&msg.Envelope{To: call.To, Seq: seq, Trace: trace, Body: call.Body}); err != nil {
			c.unregister(seq)
			f.out[i].Err = err
			continue
		}
		f.calls[i] = pendingCall{seq, ch}
	}
	return f
}

// collect awaits every sent slot of f under the shared deadline dl.
func (c *Caller) collect(f fanout, dl *deadline) []CallResult {
	for i, p := range f.calls {
		if p.ch == nil {
			continue
		}
		d, err := c.await(p.ch, dl)
		c.unregister(p.seq)
		if err != nil {
			f.out[i].Err = err
			continue
		}
		replyChans.Put(p.ch)
		f.out[i].Reply = d.env
		f.out[i].RTT = d.at.Sub(f.start)
	}
	return f.out
}

// deadline is a fan-out's shared timer plus whether it has fired. The
// timer fires once; expired carries that across the slots still to be
// collected, so they poll instead of racing a re-armed timer.
type deadline struct {
	timer   *time.Timer
	expired bool
}

// await waits for one reply on ch or for the (shared) deadline to pass.
// The deadline is not reset between calls, implementing a single deadline
// across a multicast: a reply that beat the deadline sits buffered in its
// slot's channel and is still collected after an earlier slot timed out.
func (c *Caller) await(ch chan delivered, dl *deadline) (delivered, error) {
	if !dl.expired {
		select {
		case d, ok := <-ch:
			if !ok || d.env == nil {
				return delivered{}, ErrCancelled
			}
			return d, nil
		case <-dl.timer.C:
			dl.expired = true
		}
	}
	// Past the deadline only what is already buffered counts. This also
	// covers the slot that saw the timer fire: select picks at random when
	// the reply and the timer are both ready.
	select {
	case d, ok := <-ch:
		if !ok || d.env == nil {
			return delivered{}, ErrCancelled
		}
		return d, nil
	default:
		return delivered{}, ErrTimeout
	}
}

// Deliver routes an inbound reply to its pending call. It returns true if
// the envelope was consumed; a false return means no call is waiting (late
// reply after timeout) and the owner may drop it.
func (c *Caller) Deliver(env *msg.Envelope) bool {
	if env.ReplyTo == 0 {
		return false
	}
	c.mu.Lock()
	ch, ok := c.pending[env.ReplyTo]
	if ok {
		delete(c.pending, env.ReplyTo)
	}
	c.mu.Unlock()
	if !ok {
		return false
	}
	ch <- delivered{env: env, at: time.Now()} // buffered: never blocks
	return true
}

// CancelAll fails every pending call with ErrCancelled. Used when the
// local site simulates failure: in-flight coordination must stop silently.
func (c *Caller) CancelAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for seq, ch := range c.pending {
		close(ch)
		delete(c.pending, seq)
	}
}

// replyChans recycles reply channels. A channel goes back only once its
// one reply has been received from it: Deliver sends at most once per
// registration, so it is then empty and nothing else holds it. A channel
// whose call timed out or was cancelled is never put back — a late
// Deliver may still land in it, and must not reach the channel's next
// call.
var replyChans = sync.Pool{New: func() any { return make(chan delivered, 1) }}

// register assigns a call its sequence number and a reply channel from
// the pool.
func (c *Caller) register() (uint64, chan delivered) {
	seq := c.seq.Add(1)
	ch := replyChans.Get().(chan delivered)
	c.mu.Lock()
	c.pending[seq] = ch
	c.mu.Unlock()
	return seq, ch
}

func (c *Caller) unregister(seq uint64) {
	c.mu.Lock()
	delete(c.pending, seq)
	c.mu.Unlock()
}
