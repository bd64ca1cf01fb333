package transport

import (
	"testing"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
)

// newTCPPair starts n TCP networks on loopback with ephemeral ports and
// returns them fully meshed.
func newTCPMesh(t *testing.T, n int) []*TCP {
	t.Helper()
	// First pass: bind every listener on an ephemeral port.
	nets := make([]*TCP, n)
	addrs := make(map[core.SiteID]string, n)
	for i := 0; i < n; i++ {
		id := core.SiteID(i)
		tn, err := NewTCP(TCPConfig{
			Self:          id,
			Addrs:         map[core.SiteID]string{id: "127.0.0.1:0"},
			RetryInterval: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = tn
		addrs[id] = tn.Addr()
	}
	// Second pass: install the full address map.
	for i := 0; i < n; i++ {
		for id, a := range addrs {
			nets[i].cfg.Addrs[id] = a
		}
	}
	t.Cleanup(func() {
		for _, tn := range nets {
			tn.Close()
		}
	})
	return nets
}

func TestTCPSendRecv(t *testing.T) {
	nets := newTCPMesh(t, 2)
	a, _ := nets[0].Endpoint(0)
	b, _ := nets[1].Endpoint(1)
	if err := a.Send(commitEnv(1, 42, 1)); err != nil {
		t.Fatal(err)
	}
	env, ok := b.Recv()
	if !ok {
		t.Fatal("recv failed")
	}
	if env.From != 0 || env.Body.(*msg.Commit).Txn != 42 {
		t.Errorf("got %v", env)
	}
}

func TestTCPOrderingUnderLoad(t *testing.T) {
	nets := newTCPMesh(t, 2)
	a, _ := nets[0].Endpoint(0)
	b, _ := nets[1].Endpoint(1)
	const n = 300
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
			t.Fatalf("message %d arrived as %d", i, got)
		}
	}
}

// TestTCPOutOfOrderSeqDelivered: a caller takes its sequence number before
// it enqueues the message, so two concurrent callers can put a lower
// number on the wire after a higher one. Both are distinct messages and
// must be delivered; only a repeated number is a reconnect duplicate.
func TestTCPOutOfOrderSeqDelivered(t *testing.T) {
	nets := newTCPMesh(t, 2)
	a, _ := nets[0].Endpoint(0)
	b, _ := nets[1].Endpoint(1)
	for _, seq := range []uint64{11, 10, 10, 12} {
		if err := a.Send(commitEnv(1, core.TxnID(seq), seq)); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []core.TxnID{11, 10, 12} {
		env, ok := b.Recv()
		if !ok {
			t.Fatal("recv failed")
		}
		if got := env.Body.(*msg.Commit).Txn; got != want {
			t.Fatalf("got txn %d, want %d (seq 10 overtaken by 11 must still arrive; its repeat must not)", got, want)
		}
	}
}

func TestTCPBidirectional(t *testing.T) {
	nets := newTCPMesh(t, 3)
	eps := make([]Endpoint, 3)
	for i := range nets {
		eps[i], _ = nets[i].Endpoint(core.SiteID(i))
	}
	// Every site sends to every other site.
	for from := 0; from < 3; from++ {
		seq := uint64(1)
		for to := 0; to < 3; to++ {
			if to == from {
				continue
			}
			if err := eps[from].Send(commitEnv(core.SiteID(to), core.TxnID(from*10+to), seq)); err != nil {
				t.Fatal(err)
			}
			seq++
		}
	}
	for to := 0; to < 3; to++ {
		seen := map[core.TxnID]bool{}
		for i := 0; i < 2; i++ {
			env, ok := eps[to].Recv()
			if !ok {
				t.Fatal("recv failed")
			}
			seen[env.Body.(*msg.Commit).Txn] = true
		}
		for from := 0; from < 3; from++ {
			if from == to {
				continue
			}
			if !seen[core.TxnID(from*10+to)] {
				t.Errorf("site %d missing message from %d", to, from)
			}
		}
	}
}

func TestTCPLoopback(t *testing.T) {
	nets := newTCPMesh(t, 1)
	a, _ := nets[0].Endpoint(0)
	if err := a.Send(commitEnv(0, 5, 1)); err != nil {
		t.Fatal(err)
	}
	env, ok := a.Recv()
	if !ok || env.Body.(*msg.Commit).Txn != 5 {
		t.Errorf("loopback failed: %v %v", env, ok)
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	nets := newTCPMesh(t, 1)
	a, _ := nets[0].Endpoint(0)
	if err := a.Send(commitEnv(7, 1, 1)); err == nil {
		t.Error("send to unknown peer accepted")
	}
	if _, err := nets[0].Endpoint(3); err == nil {
		t.Error("non-local endpoint granted")
	}
}

func TestTCPCloseUnblocksRecv(t *testing.T) {
	nets := newTCPMesh(t, 1)
	a, _ := nets[0].Endpoint(0)
	done := make(chan bool, 1)
	go func() {
		_, ok := a.Recv()
		done <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	nets[0].Close()
	select {
	case ok := <-done:
		if ok {
			t.Error("Recv ok after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv never unblocked")
	}
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("restart test sleeps through retry intervals")
	}
	nets := newTCPMesh(t, 2)
	a, _ := nets[0].Endpoint(0)
	addr1 := nets[1].Addr()

	// Establish the connection.
	b, _ := nets[1].Endpoint(1)
	a.Send(commitEnv(1, 1, 1))
	if _, ok := b.Recv(); !ok {
		t.Fatal("initial delivery failed")
	}

	// Restart peer 1 on the same address.
	nets[1].Close()
	time.Sleep(50 * time.Millisecond)
	re, err := NewTCP(TCPConfig{
		Self:          1,
		Addrs:         map[core.SiteID]string{0: nets[0].Addr(), 1: addr1},
		RetryInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr1, err)
	}
	defer re.Close()
	b2, _ := re.Endpoint(1)

	// The writer must notice the dead conn and redial.
	if err := a.Send(commitEnv(1, 2, 2)); err != nil {
		t.Fatal(err)
	}
	got := make(chan core.TxnID, 1)
	go func() {
		if env, ok := b2.Recv(); ok {
			got <- env.Body.(*msg.Commit).Txn
		}
	}()
	select {
	case txn := <-got:
		if txn != 2 {
			t.Errorf("got txn %d after reconnect", txn)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never delivered after peer restart")
	}
}

func TestTCPRetryConfigSemantics(t *testing.T) {
	cases := []struct {
		name string
		cfg  TCPConfig
		want int
	}{
		{"zero means default", TCPConfig{}, 10},
		{"negative means default", TCPConfig{MaxRetries: -5}, 10},
		{"explicit value kept", TCPConfig{MaxRetries: 3}, 3},
		{"disable overrides default", TCPConfig{DisableRetry: true}, 1},
		{"disable overrides explicit", TCPConfig{MaxRetries: 7, DisableRetry: true}, 1},
	}
	for _, tc := range cases {
		tc.cfg.fillDefaults()
		if tc.cfg.MaxRetries != tc.want {
			t.Errorf("%s: MaxRetries = %d, want %d", tc.name, tc.cfg.MaxRetries, tc.want)
		}
	}
}

// TestTCPNegativeMaxRetriesStillDelivers is the regression test for the
// old behaviour where a negative MaxRetries made the writer drop every
// message without a single attempt.
func TestTCPNegativeMaxRetriesStillDelivers(t *testing.T) {
	nets := make([]*TCP, 2)
	addrs := map[core.SiteID]string{}
	for i := 0; i < 2; i++ {
		id := core.SiteID(i)
		tn, err := NewTCP(TCPConfig{
			Self:          id,
			Addrs:         map[core.SiteID]string{id: "127.0.0.1:0"},
			RetryInterval: 20 * time.Millisecond,
			MaxRetries:    -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer tn.Close()
		nets[i] = tn
		addrs[id] = tn.Addr()
	}
	for i := 0; i < 2; i++ {
		for id, a := range addrs {
			nets[i].SetAddr(id, a)
		}
	}
	a, _ := nets[0].Endpoint(0)
	b, _ := nets[1].Endpoint(1)
	if err := a.Send(commitEnv(1, 77, 1)); err != nil {
		t.Fatal(err)
	}
	done := make(chan *msg.Envelope, 1)
	go func() {
		if env, ok := b.Recv(); ok {
			done <- env
		}
	}()
	select {
	case env := <-done:
		if env.Body.(*msg.Commit).Txn != 77 {
			t.Errorf("got %v", env)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message with MaxRetries=-1 never delivered")
	}
}

// TestTCPDisableRetryDelivers checks single-attempt mode still delivers
// when the peer is reachable, and drops (rather than blocks) when it is
// not.
func TestTCPDisableRetryDelivers(t *testing.T) {
	id0, id1 := core.SiteID(0), core.SiteID(1)
	tn1, err := NewTCP(TCPConfig{Self: id1, Addrs: map[core.SiteID]string{id1: "127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer tn1.Close()
	tn0, err := NewTCP(TCPConfig{
		Self: id0,
		Addrs: map[core.SiteID]string{
			id0: "127.0.0.1:0",
			id1: tn1.Addr(),
			2:   "127.0.0.1:1", // port 1: nothing listens there
		},
		DialTimeout:   200 * time.Millisecond,
		RetryInterval: 10 * time.Millisecond,
		DisableRetry:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tn0.Close()
	tn1.SetAddr(id0, tn0.Addr())

	a, _ := tn0.Endpoint(id0)
	b, _ := tn1.Endpoint(id1)

	// An unreachable peer: the single attempt fails and the writer moves
	// on without stalling the queue for later messages to other peers.
	if err := a.Send(commitEnv(2, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(commitEnv(1, 99, 2)); err != nil {
		t.Fatal(err)
	}
	done := make(chan core.TxnID, 1)
	go func() {
		if env, ok := b.Recv(); ok {
			done <- env.Body.(*msg.Commit).Txn
		}
	}()
	select {
	case txn := <-done:
		if txn != 99 {
			t.Errorf("got txn %d", txn)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reachable peer not reached in single-attempt mode")
	}
}

func TestTCPListenFailure(t *testing.T) {
	if _, err := NewTCP(TCPConfig{Self: 0, Addrs: map[core.SiteID]string{0: "256.0.0.1:bad"}}); err == nil {
		t.Error("bad listen address accepted")
	}
	if _, err := NewTCP(TCPConfig{Self: 0, Addrs: map[core.SiteID]string{}}); err == nil {
		t.Error("missing local address accepted")
	}
}

func TestTCPManyFrames(t *testing.T) {
	nets := newTCPMesh(t, 2)
	a, _ := nets[0].Endpoint(0)
	b, _ := nets[1].Endpoint(1)
	// Large payloads exercise framing across buffer boundaries.
	big := make([]byte, 70000)
	for i := range big {
		big[i] = byte(i)
	}
	for i := 0; i < 10; i++ {
		env := &msg.Envelope{To: 1, Seq: uint64(i + 1), Body: &msg.CtrlReplicate{
			Items: []core.ItemVersion{{Item: core.ItemID(i), Version: 1, Value: big}},
		}}
		if err := a.Send(env); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		env, ok := b.Recv()
		if !ok {
			t.Fatal("recv failed")
		}
		items := env.Body.(*msg.CtrlReplicate).Items
		if len(items) != 1 || len(items[0].Value) != len(big) {
			t.Fatalf("frame %d mangled", i)
		}
		for j, v := range items[0].Value {
			if v != byte(j) {
				t.Fatalf("frame %d byte %d = %d", i, j, v)
			}
		}
	}
}
