package transport

import (
	"errors"
	"testing"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
)

// echoSite runs a trivial responder: every Commit request is answered with
// a CommitAck; StatusReq is ignored (to exercise timeouts).
func echoSite(t *testing.T, net *Memory, id core.SiteID) {
	t.Helper()
	ep, err := net.Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	caller := NewCaller(ep, time.Second)
	go func() {
		for {
			env, ok := ep.Recv()
			if !ok {
				return
			}
			if c, isCommit := env.Body.(*msg.Commit); isCommit {
				caller.Reply(env, &msg.CommitAck{Txn: c.Txn})
			}
		}
	}()
}

func TestCallerCall(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 2})
	defer net.Close()
	echoSite(t, net, 1)
	ep, _ := net.Endpoint(0)
	c := NewCaller(ep, time.Second)
	go func() {
		for {
			env, ok := ep.Recv()
			if !ok {
				return
			}
			c.Deliver(env)
		}
	}()
	reply, err := c.Call(1, &msg.Commit{Txn: 5})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Body.(*msg.CommitAck).Txn != 5 {
		t.Errorf("reply = %v", reply)
	}
	if c.Sent() != 1 {
		t.Errorf("Sent = %d", c.Sent())
	}
}

func TestCallerTimeout(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 2})
	defer net.Close()
	// Site 1 exists but never answers StatusReq.
	echoSite(t, net, 1)
	ep, _ := net.Endpoint(0)
	c := NewCaller(ep, 30*time.Millisecond)
	go func() {
		for {
			env, ok := ep.Recv()
			if !ok {
				return
			}
			c.Deliver(env)
		}
	}()
	start := time.Now()
	_, err := c.Call(1, &msg.StatusReq{})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Error("timeout took far too long")
	}
}

func TestCallerCancelAll(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 2})
	defer net.Close()
	if _, err := net.Endpoint(1); err != nil { // silent peer
		t.Fatal(err)
	}
	ep, _ := net.Endpoint(0)
	c := NewCaller(ep, 5*time.Second)
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Call(1, &msg.StatusReq{})
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.CancelAll()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrCancelled) {
			t.Errorf("err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancel did not unblock call")
	}
}

// callerAt builds a caller on the given endpoint with its receive loop
// routing replies into the pending table.
func callerAt(t *testing.T, net *Memory, id core.SiteID, timeout time.Duration) *Caller {
	t.Helper()
	ep, err := net.Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCaller(ep, timeout)
	go func() {
		for {
			env, ok := ep.Recv()
			if !ok {
				return
			}
			c.Deliver(env)
		}
	}()
	return c
}

func TestMulticastSendFailureFailsFast(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 2})
	defer net.Close()
	echoSite(t, net, 1)
	c := callerAt(t, net, 0, 2*time.Second)
	// Site 7 does not exist: its Send fails. The slot must fail with the
	// send error immediately instead of burning the shared deadline.
	start := time.Now()
	res := c.MulticastT(0, []Outcall{
		{To: 7, Body: &msg.Commit{Txn: 1}},
		{To: 1, Body: &msg.Commit{Txn: 2}},
	})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("send-failure slot burned the timeout: %v", elapsed)
	}
	if res[0].Err == nil || errors.Is(res[0].Err, ErrTimeout) || errors.Is(res[0].Err, ErrCancelled) {
		t.Errorf("slot 0 err = %v, want a send error", res[0].Err)
	}
	if res[1].Err != nil || res[1].Reply.Body.(*msg.CommitAck).Txn != 2 {
		t.Errorf("slot 1 = %+v, want reply", res[1])
	}
}

// TestMulticastAllocs pins the allocations of one 3-target MulticastT over
// the memory transport — the fan-out every commit runs — at 51. The count
// covers the whole round: the caller's slots, envelopes and timer, the
// transport's queueing and the echo sites' replies.
func TestMulticastAllocs(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 4})
	defer net.Close()
	for id := core.SiteID(1); id < 4; id++ {
		echoSite(t, net, id)
	}
	c := callerAt(t, net, 0, time.Second)
	calls := Outcalls([]core.SiteID{1, 2, 3}, func(core.SiteID) msg.Body { return &msg.Commit{Txn: 1} })
	allocs := testing.AllocsPerRun(200, func() {
		for _, r := range c.MulticastT(0, calls) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	})
	if allocs > 51 {
		t.Errorf("MulticastT to 3 targets: %v allocs per fan-out, want <= 51", allocs)
	}
}

func TestMulticastDistinguishesTimeoutFromCancel(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 3})
	defer net.Close()
	echoSite(t, net, 1)
	if _, err := net.Endpoint(2); err != nil { // silent peer
		t.Fatal(err)
	}
	c := callerAt(t, net, 0, 50*time.Millisecond)
	res := c.MulticastT(0, []Outcall{
		{To: 1, Body: &msg.Commit{Txn: 4}},
		{To: 2, Body: &msg.Commit{Txn: 5}},
	})
	if res[0].Err != nil {
		t.Errorf("live slot err = %v", res[0].Err)
	}
	if res[0].RTT <= 0 || res[0].RTT > time.Second {
		t.Errorf("live slot RTT = %v", res[0].RTT)
	}
	if !errors.Is(res[1].Err, ErrTimeout) {
		t.Errorf("silent slot err = %v, want ErrTimeout", res[1].Err)
	}

	// Cancellation mid-flight must surface as ErrCancelled, not ErrTimeout.
	c2 := callerAt(t, net, 1, 5*time.Second)
	done := make(chan []CallResult, 1)
	go func() {
		done <- c2.MulticastT(0, []Outcall{{To: 2, Body: &msg.Commit{Txn: 6}}})
	}()
	time.Sleep(20 * time.Millisecond)
	c2.CancelAll()
	select {
	case res := <-done:
		if !errors.Is(res[0].Err, ErrCancelled) {
			t.Errorf("cancelled slot err = %v, want ErrCancelled", res[0].Err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancel did not unblock multicast")
	}
}

func TestMulticastSharedDeadlineCollectsBufferedReplies(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 3})
	defer net.Close()
	echoSite(t, net, 1)
	if _, err := net.Endpoint(2); err != nil { // silent peer
		t.Fatal(err)
	}
	const timeout = 150 * time.Millisecond
	c := callerAt(t, net, 0, timeout)
	// The dead slot is drained first: it expires the shared timer, and the
	// live reply — long since buffered — must still be collected, with the
	// whole fan-out bounded by ~one timeout, not one per slot.
	start := time.Now()
	res := c.MulticastT(0, []Outcall{
		{To: 2, Body: &msg.Commit{Txn: 7}},
		{To: 1, Body: &msg.Commit{Txn: 8}},
	})
	elapsed := time.Since(start)
	if !errors.Is(res[0].Err, ErrTimeout) {
		t.Errorf("dead slot err = %v", res[0].Err)
	}
	if res[1].Err != nil || res[1].Reply.Body.(*msg.CommitAck).Txn != 8 {
		t.Errorf("buffered reply lost: %+v", res[1])
	}
	if elapsed >= 2*timeout {
		t.Errorf("fan-out took %v, want < 2x the %v shared deadline", elapsed, timeout)
	}
}

func TestMulticastDuplicateTargets(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 2})
	defer net.Close()
	echoSite(t, net, 1)
	c := callerAt(t, net, 0, time.Second)
	res := c.MulticastT(0, []Outcall{
		{To: 1, Body: &msg.Commit{Txn: 10}},
		{To: 1, Body: &msg.Commit{Txn: 11}},
	})
	for i, want := range []core.TxnID{10, 11} {
		if res[i].Err != nil {
			t.Fatalf("slot %d err = %v", i, res[i].Err)
		}
		if got := res[i].Reply.Body.(*msg.CommitAck).Txn; got != want {
			t.Errorf("slot %d correlated to txn %d, want %d", i, got, want)
		}
	}
}

func TestCallerLateReplyDropped(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 2})
	defer net.Close()
	ep, _ := net.Endpoint(0)
	c := NewCaller(ep, time.Second)
	// A reply correlated to nothing must not be consumed.
	late := &msg.Envelope{From: 1, To: 0, Seq: 99, ReplyTo: 12345, Body: &msg.CommitAck{Txn: 1}}
	if c.Deliver(late) {
		t.Error("uncorrelated reply consumed")
	}
	// A request (ReplyTo 0) is never consumed by the caller.
	req := &msg.Envelope{From: 1, To: 0, Seq: 100, Body: &msg.Commit{Txn: 1}}
	if c.Deliver(req) {
		t.Error("request consumed as reply")
	}
}

func TestCallerReply(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 2})
	defer net.Close()
	a, _ := net.Endpoint(0)
	b, _ := net.Endpoint(1)
	ca := NewCaller(a, time.Second)
	req := &msg.Envelope{From: 1, To: 0, Seq: 77, Body: &msg.Commit{Txn: 2}}
	if err := ca.Reply(req, &msg.CommitAck{Txn: 2}); err != nil {
		t.Fatal(err)
	}
	env, ok := b.Recv()
	if !ok || env.ReplyTo != 77 || env.To != 1 {
		t.Errorf("reply env = %v", env)
	}
}

// TestLateReplyNeverReachesPooledChannel: reply channels are pooled, and a
// reply that arrives after its fan-out's deadline is dropped — it never
// reaches a later call that took a channel from the pool.
func TestLateReplyNeverReachesPooledChannel(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 2})
	defer net.Close()
	// Site 1 echoes every Commit; the first only once released.
	release := make(chan struct{})
	ep1, _ := net.Endpoint(1)
	echo := NewCaller(ep1, time.Second)
	go func() {
		held := true
		for {
			env, ok := ep1.Recv()
			if !ok {
				return
			}
			if held {
				<-release
				held = false
			}
			echo.Reply(env, &msg.CommitAck{Txn: env.Body.(*msg.Commit).Txn})
		}
	}()
	ep0, _ := net.Endpoint(0)
	c := NewCaller(ep0, time.Millisecond)
	consumed, dropped := make(chan struct{}, 4), make(chan struct{}, 4)
	go func() {
		for {
			env, ok := ep0.Recv()
			if !ok {
				return
			}
			if c.Deliver(env) {
				consumed <- struct{}{}
			} else {
				dropped <- struct{}{}
			}
		}
	}()
	ackOf := func(r CallResult) core.TxnID {
		t.Helper()
		if r.Err != nil {
			t.Fatalf("call to %s: %v", r.To, r.Err)
		}
		return r.Reply.Body.(*msg.CommitAck).Txn
	}

	if r := c.MulticastT(0, []Outcall{{To: 1, Body: &msg.Commit{Txn: 1}}}); !errors.Is(r[0].Err, ErrTimeout) {
		t.Fatalf("held call: err %v, want a timeout", r[0].Err)
	}
	// A second call is in flight once MulticastAsyncT returns; only then is
	// the first reply released, to land after its deadline.
	join := c.MulticastAsyncT(0, []Outcall{{To: 1, Body: &msg.Commit{Txn: 2}}})
	close(release)
	<-dropped  // the late reply to txn 1
	<-consumed // txn 2's own reply, buffered for join
	if got := ackOf(join()[0]); got != 2 {
		t.Fatalf("second call got the ack of txn %d, want 2", got)
	}

	// The narrower race: Deliver takes a slot from the pending table just
	// before the deadline fires, and sends just after the waiter gave up.
	// Replay it by hand; the channel must not serve the next call.
	seq, ch := c.register()
	c.mu.Lock()
	delete(c.pending, seq) // Deliver's lookup
	c.mu.Unlock()
	f := fanout{out: make([]CallResult, 1), calls: []pendingCall{{seq, ch}}, start: time.Now()}
	dl := deadline{timer: time.NewTimer(time.Hour), expired: true}
	defer dl.timer.Stop()
	if r := c.collect(f, &dl); !errors.Is(r[0].Err, ErrTimeout) {
		t.Fatalf("replayed slot: err %v, want a timeout", r[0].Err)
	}
	ch <- delivered{env: &msg.Envelope{Body: &msg.CommitAck{Txn: 99}}, at: time.Now()} // Deliver's send
	for txn := core.TxnID(3); txn < 10; txn++ {
		reply, err := c.CallTimeoutT(0, 1, &msg.Commit{Txn: txn}, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got := reply.Body.(*msg.CommitAck).Txn; got != txn {
			t.Fatalf("call for txn %d got the ack of txn %d", txn, got)
		}
		<-consumed
	}
}
