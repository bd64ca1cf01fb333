package site

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
	"minraid/internal/transport"
)

// coordinatorFrames counts the goroutines whose stacks hold a coordinator
// worker or a transaction it is running.
func coordinatorFrames() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "site.(*Site).coordinator(") || strings.Contains(g, "site.(*Site).coordinate(") {
			count++
		}
	}
	return count
}

// TestStopJoinsCoordinatorWorkers: the workers start with the site and are
// gone once Stop returns. Stop waits for every worker's exit, so the
// goroutine profile is checked without sleeping; a worker that has just
// signalled its exit may still be unwinding, so the check yields to it a
// bounded number of times.
func TestStopJoinsCoordinatorWorkers(t *testing.T) {
	h := newHarness(t, 3, 10, func(c *Config) {
		if c.ID == 2 {
			c.ConcurrentTxns = 4
		}
	})
	for i := 1; i <= 3; i++ {
		if res := h.exec(t, core.SiteID(i-1), core.TxnID(i), []core.Op{core.Write(1, []byte("x"))}); !res.Committed {
			t.Fatalf("txn %d aborted: %s", i, res.AbortReason)
		}
	}
	if got := coordinatorFrames(); got < 1+1+4 {
		t.Fatalf("%d coordinator goroutines before Stop, want at least 6 (one per serial site, four at the concurrent one)", got)
	}
	for _, s := range h.sites {
		s.Stop()
	}
	left := coordinatorFrames()
	for i := 0; left > 0 && i < 1000; i++ {
		runtime.Gosched()
		left = coordinatorFrames()
	}
	if left > 0 {
		t.Fatalf("%d coordinator goroutines outlive Stop", left)
	}
}

// heldPeer is a scripted site 1 for a real site 0: the test reads site 0's
// requests from its endpoint and answers them, or does not.
type heldPeer struct {
	ep     transport.Endpoint
	caller *transport.Caller
}

// serialSiteWithHeldPeer starts a serial site 0 whose only peer, site 1, is
// scripted by the test, and returns the managing site's raw endpoint: the
// test sends requests on it and reads the replies itself, so every reply
// the site ever sends is accounted for.
func serialSiteWithHeldPeer(t *testing.T) (*Site, *heldPeer, transport.Endpoint) {
	t.Helper()
	net := transport.NewMemory(transport.MemoryConfig{Sites: 2})
	t.Cleanup(func() { net.Close() })
	s, err := New(Config{ID: 0, Sites: 2, Items: 10, AckTimeout: 5 * time.Second}, net)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Stop)
	ep, _ := net.Endpoint(1)
	mgr, _ := net.Endpoint(core.ManagingSite)
	return s, &heldPeer{ep: ep, caller: transport.NewCaller(ep, time.Second)}, mgr
}

// recv returns the peer's next request, which must be of kind k.
func (p *heldPeer) recv(t *testing.T, k msg.Kind) *msg.Envelope {
	t.Helper()
	env, ok := p.ep.Recv()
	if !ok || env.Body.Kind() != k {
		t.Fatalf("peer got %v, want a %s", env, k)
	}
	return env
}

// sendTxn sends a client transaction from the managing site without
// waiting for its result.
func sendTxn(t *testing.T, mgr transport.Endpoint, id core.TxnID, ops []core.Op) {
	t.Helper()
	if err := mgr.Send(&msg.Envelope{To: 0, Seq: uint64(id), Trace: uint64(id), Body: &msg.ClientTxn{Txn: id, Ops: ops}}); err != nil {
		t.Fatal(err)
	}
}

// TestQueuedTxnsAnsweredInArrivalOrder: while the serial worker waits on a
// held phase one, later transactions queue behind it, and every outcome
// reaches the client in the order the transactions arrived.
func TestQueuedTxnsAnsweredInArrivalOrder(t *testing.T) {
	_, peer, mgr := serialSiteWithHeldPeer(t)
	sendTxn(t, mgr, 1, []core.Op{core.Write(0, []byte("a"))})
	prep := peer.recv(t, msg.KindPrepare) // the worker now waits for this ack
	for id := core.TxnID(2); id <= 6; id++ {
		ops := []core.Op{core.Read(core.ItemID(id))}
		if id%2 == 0 {
			ops = append(ops, core.Write(core.ItemID(id), []byte("b")))
		}
		sendTxn(t, mgr, id, ops)
	}
	peer.caller.Reply(prep, &msg.PrepareAck{Txn: 1, OK: true})
	// Answer the commits and the later prepares as they come.
	go func() {
		for {
			env, ok := peer.ep.Recv()
			if !ok {
				return
			}
			switch b := env.Body.(type) {
			case *msg.Prepare:
				peer.caller.Reply(env, &msg.PrepareAck{Txn: b.Txn, OK: true})
			case *msg.Commit:
				peer.caller.Reply(env, &msg.CommitAck{Txn: b.Txn})
			}
		}
	}()
	for want := core.TxnID(1); want <= 6; want++ {
		env, ok := mgr.Recv()
		if !ok {
			t.Fatal("manager endpoint closed")
		}
		res, isResult := env.Body.(*msg.TxnResult)
		if !isResult || res.Txn != want || !res.Committed {
			t.Fatalf("reply %v (%+v), want txn %d committed", env, env.Body, want)
		}
	}
}

// TestFailedSiteStaysSilentWithQueuedTxns: a site that fails while its
// serial worker is busy and transactions are queued answers none of them —
// neither the one in flight nor the queued ones the worker runs afterwards.
func TestFailedSiteStaysSilentWithQueuedTxns(t *testing.T) {
	s, peer, mgr := serialSiteWithHeldPeer(t)
	sendTxn(t, mgr, 1, []core.Op{core.Write(0, []byte("a"))})
	peer.recv(t, msg.KindPrepare) // never answered
	sendTxn(t, mgr, 2, []core.Op{core.Write(2, []byte("b"))})
	sendTxn(t, mgr, 3, []core.Op{core.Read(3)})
	sendTxn(t, mgr, 4, []core.Op{core.Read(4), core.Write(4, []byte("c"))})
	if err := mgr.Send(&msg.Envelope{To: 0, Seq: 100, Body: &msg.FailSim{}}); err != nil {
		t.Fatal(err)
	}
	if env, ok := mgr.Recv(); !ok || env.ReplyTo != 100 {
		t.Fatalf("got %v, want the fail order's ack", env)
	}
	waitFor(t, "the worker to take every queued transaction", func() bool {
		s.txns.mu.Lock()
		defer s.txns.mu.Unlock()
		return s.txns.head == len(s.txns.items)
	})
	s.Stop() // joins the worker: whatever it sent is in the manager's inbox
	mgr.Close()
	for {
		env, ok := mgr.Recv()
		if !ok {
			break
		}
		t.Errorf("failed site answered: %v", env)
	}
}
