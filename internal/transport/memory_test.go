package transport

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
)

func commitEnv(to core.SiteID, txn core.TxnID, seq uint64) *msg.Envelope {
	return &msg.Envelope{To: to, Seq: seq, Body: &msg.Commit{Txn: txn}}
}

func TestQueueFIFO(t *testing.T) {
	q := newQueue[int]()
	for i := 0; i < 100; i++ {
		if !q.push(i) {
			t.Fatal("push failed on open queue")
		}
	}
	if q.len() != 100 {
		t.Fatalf("len = %d", q.len())
	}
	for i := 0; i < 100; i++ {
		v, ok := q.pop()
		if !ok || v != i {
			t.Fatalf("pop %d = %d,%v", i, v, ok)
		}
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := newQueue[int]()
	q.push(1)
	q.push(2)
	q.close()
	if q.push(3) {
		t.Error("push on closed queue succeeded")
	}
	if v, ok := q.pop(); !ok || v != 1 {
		t.Errorf("pop = %d,%v", v, ok)
	}
	if v, ok := q.pop(); !ok || v != 2 {
		t.Errorf("pop = %d,%v", v, ok)
	}
	if _, ok := q.pop(); ok {
		t.Error("pop after drain returned ok")
	}
}

func TestQueueBlockingPop(t *testing.T) {
	q := newQueue[int]()
	done := make(chan int, 1)
	go func() {
		v, _ := q.pop()
		done <- v
	}()
	time.Sleep(10 * time.Millisecond)
	q.push(7)
	select {
	case v := <-done:
		if v != 7 {
			t.Errorf("popped %d", v)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked pop never woke")
	}
}

func TestMemorySendRecv(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 2})
	defer net.Close()
	a, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(commitEnv(1, 9, 1)); err != nil {
		t.Fatal(err)
	}
	env, ok := b.Recv()
	if !ok {
		t.Fatal("recv failed")
	}
	if env.From != 0 || env.To != 1 || env.Body.(*msg.Commit).Txn != 9 {
		t.Errorf("got %v", env)
	}
	if net.MessagesSent() != 1 {
		t.Errorf("MessagesSent = %d", net.MessagesSent())
	}
}

func TestMemoryPerLinkFIFO(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 2})
	defer net.Close()
	a, _ := net.Endpoint(0)
	b, _ := net.Endpoint(1)
	const n = 500
	for i := 0; i < n; i++ {
		if err := a.Send(commitEnv(1, core.TxnID(i), uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		env, ok := b.Recv()
		if !ok {
			t.Fatal("recv failed")
		}
		if got := env.Body.(*msg.Commit).Txn; got != core.TxnID(i) {
			t.Fatalf("message %d arrived as txn %d: order violated", i, got)
		}
	}
}

func TestMemoryIsolation(t *testing.T) {
	// Messages are serialized; mutating the sent body must not affect the
	// received copy.
	net := NewMemory(MemoryConfig{Sites: 2})
	defer net.Close()
	a, _ := net.Endpoint(0)
	b, _ := net.Endpoint(1)
	body := &msg.ClientTxn{Txn: 1, Ops: []core.Op{core.Write(0, []byte{1})}}
	if err := a.Send(&msg.Envelope{To: 1, Seq: 1, Body: body}); err != nil {
		t.Fatal(err)
	}
	body.Ops[0].Value[0] = 99
	env, _ := b.Recv()
	if got := env.Body.(*msg.ClientTxn).Ops[0].Value[0]; got != 1 {
		t.Errorf("receiver saw mutated value %d", got)
	}
}

func TestMemoryManagingSiteEndpoint(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 1})
	defer net.Close()
	mgr, err := net.Endpoint(core.ManagingSite)
	if err != nil {
		t.Fatal(err)
	}
	s0, _ := net.Endpoint(0)
	if err := mgr.Send(&msg.Envelope{To: 0, Seq: 1, Body: &msg.FailSim{}}); err != nil {
		t.Fatal(err)
	}
	env, _ := s0.Recv()
	if env.From != core.ManagingSite {
		t.Errorf("From = %v", env.From)
	}
	if err := s0.Send(&msg.Envelope{To: core.ManagingSite, Seq: 1, Body: &msg.CtrlFailAck{}}); err != nil {
		t.Fatal(err)
	}
	if env, ok := mgr.Recv(); !ok || env.From != 0 {
		t.Errorf("managing recv = %v %v", env, ok)
	}
}

func TestMemoryUnknownSite(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 2})
	defer net.Close()
	if _, err := net.Endpoint(5); err == nil {
		t.Error("endpoint for unknown site granted")
	}
	a, _ := net.Endpoint(0)
	if err := a.Send(commitEnv(9, 1, 1)); err == nil {
		t.Error("send to unknown site accepted")
	}
}

func TestMemoryEndpointIdempotent(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 1})
	defer net.Close()
	a1, _ := net.Endpoint(0)
	a2, _ := net.Endpoint(0)
	if a1 != a2 {
		t.Error("Endpoint returned distinct instances")
	}
}

// Close wakes a blocked Recv at once — also when what Recv is waiting for
// is a message still inside its Delay, which is discarded, not waited out.
func TestMemoryCloseUnblocksRecv(t *testing.T) {
	for _, delay := range []time.Duration{0, time.Hour} {
		t.Run(delay.String(), func(t *testing.T) {
			net := NewMemory(MemoryConfig{Sites: 1, Delay: delay})
			a, _ := net.Endpoint(0)
			if delay > 0 {
				if err := a.Send(commitEnv(0, 1, 1)); err != nil {
					t.Fatal(err)
				}
			}
			done := make(chan bool, 1)
			go func() {
				_, ok := a.Recv()
				done <- ok
			}()
			time.Sleep(5 * time.Millisecond)
			net.Close()
			select {
			case ok := <-done:
				if ok {
					t.Error("Recv returned ok after close")
				}
			case <-time.After(time.Second):
				t.Fatal("Recv never unblocked")
			}
			if err := a.Send(commitEnv(0, 1, 1)); err != ErrClosed {
				t.Errorf("send after close: %v", err)
			}
			if _, err := net.Endpoint(0); err != ErrClosed {
				t.Errorf("endpoint after close: %v", err)
			}
			if err := net.Close(); err != nil {
				t.Errorf("double close: %v", err)
			}
		})
	}
}

func TestMemoryDelay(t *testing.T) {
	const d = 20 * time.Millisecond
	net := NewMemory(MemoryConfig{Sites: 2, Delay: d})
	defer net.Close()
	a, _ := net.Endpoint(0)
	b, _ := net.Endpoint(1)
	start := time.Now()
	a.Send(commitEnv(1, 1, 1))
	if _, ok := b.Recv(); !ok {
		t.Fatal("recv failed")
	}
	if got := time.Since(start); got < d {
		t.Errorf("delivery took %v, want >= %v", got, d)
	}
}

// Delivery order is the order senders reach the destination's inbox, so
// with several goroutines sending at once — several sites, and several
// goroutines of one site, as a coordinator and its receive loop are — each
// goroutine's messages must still arrive in the order it sent them.
func TestMemoryConcurrentSenders(t *testing.T) {
	for _, delay := range []time.Duration{0, 200 * time.Microsecond} {
		t.Run(delay.String(), func(t *testing.T) {
			net := NewMemory(MemoryConfig{Sites: 4, Delay: delay})
			defer net.Close()
			dst, _ := net.Endpoint(3)
			const (
				perSender = 200
				perSite   = 2 // goroutines sharing one site's endpoint
			)
			var wg sync.WaitGroup
			for s := 0; s < 3; s++ {
				ep, _ := net.Endpoint(core.SiteID(s))
				for g := 0; g < perSite; g++ {
					wg.Add(1)
					go func(ep Endpoint, g int) {
						defer wg.Done()
						for i := 0; i < perSender; i++ {
							// Trace tells the site's goroutines apart.
							env := commitEnv(3, core.TxnID(i), uint64(i+1))
							env.Trace = uint64(g)
							ep.Send(env)
						}
					}(ep, g)
				}
			}
			defer wg.Wait()
			type stream struct {
				from core.SiteID
				g    uint64
			}
			next := map[stream]core.TxnID{}
			for i := 0; i < 3*perSite*perSender; i++ {
				env, ok := dst.Recv()
				if !ok {
					t.Fatal("recv failed")
				}
				st := stream{env.From, env.Trace}
				if got := env.Body.(*msg.Commit).Txn; got != next[st] {
					t.Fatalf("sender %v/%d: got txn %d, want %d", st.from, st.g, got, next[st])
				}
				next[st]++
			}
		})
	}
}

// The network is passive: it starts no goroutine, whatever the Delay, so a
// message's only hand-off is from its sender to whoever calls Recv.
func TestMemoryStartsNoGoroutine(t *testing.T) {
	for _, delay := range []time.Duration{0, time.Millisecond} {
		t.Run(delay.String(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			net := NewMemory(MemoryConfig{Sites: 3, Delay: delay})
			defer net.Close()
			ids := []core.SiteID{0, 1, 2, core.ManagingSite}
			for _, from := range ids {
				ep, err := net.Endpoint(from)
				if err != nil {
					t.Fatal(err)
				}
				for _, to := range ids {
					if err := ep.Send(commitEnv(to, 1, 1)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("%d goroutines before the sends, %d after", before, after)
			}
			for _, to := range ids {
				ep, _ := net.Endpoint(to)
				for range ids {
					if _, ok := ep.Recv(); !ok {
						t.Fatalf("a message to %v was lost", to)
					}
				}
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("%d goroutines before the deliveries, %d after", before, after)
			}
		})
	}
}

// With no Delay, Send is delivery: the message is in the destination's
// inbox when Send returns, not on its way there.
func TestMemorySendDeliversBeforeReturning(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 2})
	defer net.Close()
	a, _ := net.Endpoint(0)
	b, _ := net.Endpoint(1)
	for i := 1; i <= 3; i++ {
		if err := a.Send(commitEnv(1, core.TxnID(i), uint64(i))); err != nil {
			t.Fatal(err)
		}
		if got := b.(*memEndpoint).inbox.len(); got != 1 {
			t.Fatalf("send %d returned with %d messages in the inbox, want 1", i, got)
		}
		if env, ok := b.Recv(); !ok || env.Seq != uint64(i) {
			t.Fatalf("recv %d: %v %v", i, env, ok)
		}
	}
}

// One Send and Recv of a Commit allocates the encoding, the decoded
// envelope and its body, and nothing per message for queueing or routing.
func TestMemorySendRecvAllocs(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 2})
	defer net.Close()
	a, _ := net.Endpoint(0)
	b, _ := net.Endpoint(1)
	env := commitEnv(1, 9, 1)
	allocs := testing.AllocsPerRun(200, func() {
		if err := a.Send(env); err != nil {
			t.Fatal(err)
		}
		if _, ok := b.Recv(); !ok {
			t.Fatal("recv failed")
		}
	})
	const ceiling = 5
	if allocs > ceiling {
		t.Fatalf("Send+Recv of a Commit allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}

func TestMemoryBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-site config accepted")
		}
	}()
	NewMemory(MemoryConfig{Sites: 0})
}
