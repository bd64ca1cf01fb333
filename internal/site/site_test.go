package site

import (
	"testing"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
	"minraid/internal/policy"
	"minraid/internal/storage"
	"minraid/internal/transport"
)

// harness hosts n sites plus a manager caller on one memory network.
type harness struct {
	net    *transport.Memory
	sites  []*Site
	caller *transport.Caller
}

func newHarness(t *testing.T, n, items int, mutate func(*Config)) *harness {
	t.Helper()
	net := transport.NewMemory(transport.MemoryConfig{Sites: n})
	h := &harness{net: net}
	for i := 0; i < n; i++ {
		cfg := Config{ID: core.SiteID(i), Sites: n, Items: items, AckTimeout: 50 * time.Millisecond}
		if mutate != nil {
			mutate(&cfg)
		}
		s, err := New(cfg, net)
		if err != nil {
			t.Fatal(err)
		}
		h.sites = append(h.sites, s)
		s.Start()
	}
	mgr, err := net.Endpoint(core.ManagingSite)
	if err != nil {
		t.Fatal(err)
	}
	h.caller = transport.NewCaller(mgr, 5*time.Second)
	go func() {
		for {
			env, ok := mgr.Recv()
			if !ok {
				return
			}
			h.caller.Deliver(env)
		}
	}()
	t.Cleanup(func() {
		for _, s := range h.sites {
			s.Stop()
		}
		net.Close()
	})
	return h
}

func (h *harness) exec(t *testing.T, coord core.SiteID, id core.TxnID, ops []core.Op) *msg.TxnResult {
	t.Helper()
	reply, err := h.caller.Call(coord, &msg.ClientTxn{Txn: id, Ops: ops})
	if err != nil {
		t.Fatalf("exec txn %d: %v", id, err)
	}
	return reply.Body.(*msg.TxnResult)
}

func TestConfigValidation(t *testing.T) {
	net := transport.NewMemory(transport.MemoryConfig{Sites: 2})
	defer net.Close()
	bad := []Config{
		{ID: 0, Sites: 0, Items: 5},
		{ID: 5, Sites: 2, Items: 5},
		{ID: 0, Sites: 2, Items: 0},
		{ID: 0, Sites: 2, Items: 5, BatchCopierThreshold: 1.5},
		{ID: 0, Sites: 2, Items: 5, Store: storage.NewMemStore(3, nil)}, // size mismatch
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("config %d validates", i)
		}
		if _, err := New(cfg, net); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	good := Config{ID: 0, Sites: 2, Items: 5}
	if allocs := testing.AllocsPerRun(10, func() { _ = good.Validate() }); allocs != 0 {
		t.Errorf("Validate made %v allocations; it must build no store, registry or replica map", allocs)
	}
	s, err := New(good, net)
	if err != nil {
		t.Fatal(err)
	}
	if s.Policy().Name() != "rowaa" {
		t.Errorf("default policy = %s", s.Policy().Name())
	}
	if s.State() != core.StatusUp || s.Session() != 1 {
		t.Errorf("initial state %v session %d", s.State(), s.Session())
	}
}

func TestAdminAllowed(t *testing.T) {
	mk := func(from core.SiteID, body msg.Body) *msg.Envelope {
		return &msg.Envelope{From: from, Body: body}
	}
	if !adminAllowed(mk(core.ManagingSite, &msg.RecoverSim{})) {
		t.Error("RecoverSim from manager blocked")
	}
	if !adminAllowed(mk(core.ManagingSite, &msg.StatusReq{})) {
		t.Error("StatusReq from manager blocked")
	}
	if !adminAllowed(mk(core.ManagingSite, &msg.Shutdown{})) {
		t.Error("Shutdown from manager blocked")
	}
	if adminAllowed(mk(core.ManagingSite, &msg.Prepare{})) {
		t.Error("Prepare from manager allowed on a down site")
	}
	if adminAllowed(mk(1, &msg.RecoverSim{})) {
		t.Error("RecoverSim from a peer allowed")
	}
}

func TestStalePrepareNacked(t *testing.T) {
	h := newHarness(t, 2, 5, nil)
	// Forge a prepare whose vector names the wrong session for site 1.
	vec := core.NewSessionVector(2)
	vec.MarkUp(1, 42) // site 1 is actually in session 1
	reply, err := h.caller.Call(1, &msg.Prepare{
		Txn:    7,
		Vector: vec.Records(),
		Writes: []core.ItemVersion{{Item: 0, Version: 7, Value: []byte("x")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ack := reply.Body.(*msg.PrepareAck)
	if ack.OK {
		t.Fatal("stale-session prepare acked")
	}
}

func TestPrepareRejectsOutOfRangeWrite(t *testing.T) {
	h := newHarness(t, 2, 5, nil)
	vec := core.NewSessionVector(2)
	reply, err := h.caller.Call(1, &msg.Prepare{
		Txn:    7,
		Vector: vec.Records(),
		Writes: []core.ItemVersion{{Item: 99, Version: 7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Body.(*msg.PrepareAck).OK {
		t.Fatal("out-of-range write acked")
	}
}

func TestAbortDiscardsStagedWrites(t *testing.T) {
	h := newHarness(t, 2, 5, nil)
	vec := core.NewSessionVector(2)
	if _, err := h.caller.Call(1, &msg.Prepare{
		Txn:    9,
		Vector: vec.Records(),
		Writes: []core.ItemVersion{{Item: 2, Version: 9, Value: []byte("ghost")}},
	}); err != nil {
		t.Fatal(err)
	}
	h.caller.Send(1, &msg.Abort{Txn: 9})
	time.Sleep(20 * time.Millisecond)
	// A commit for the aborted txn must be a no-op (acked, not applied).
	reply, err := h.caller.Call(1, &msg.Commit{Txn: 9})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Body.(*msg.CommitAck).Txn != 9 {
		t.Error("commit of unknown txn not acked")
	}
	dump, _ := h.caller.Call(1, &msg.DumpReq{First: 2, Last: 2})
	iv := dump.Body.(*msg.DumpResp).Items[0]
	if iv.Version != 0 || string(iv.Value) == "ghost" {
		t.Errorf("aborted write applied: %v", iv)
	}
}

func TestFailedSiteIsDeaf(t *testing.T) {
	h := newHarness(t, 2, 5, nil)
	if _, err := h.caller.Call(0, &msg.FailSim{}); err != nil {
		t.Fatal(err)
	}
	if h.sites[0].State() != core.StatusDown {
		t.Fatal("site not down")
	}
	// Protocol traffic is dropped: a prepare gets no reply, even from the
	// managing site (Prepare is not in the admin allowlist).
	vec := core.NewSessionVector(2)
	done := make(chan struct{})
	go func() {
		h.caller.Call(0, &msg.Prepare{Txn: 1, Vector: vec.Records()})
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("down site answered a prepare")
	case <-time.After(150 * time.Millisecond):
	}
	// StatusReq still answered (out-of-band instrumentation).
	reply, err := h.caller.Call(0, &msg.StatusReq{})
	if err != nil {
		t.Fatal(err)
	}
	if got := reply.Body.(*msg.StatusResp).State; got != core.StatusDown {
		t.Errorf("status while down = %v", got)
	}
}

func TestRecoveryBumpsSession(t *testing.T) {
	h := newHarness(t, 2, 5, nil)
	h.caller.Call(0, &msg.FailSim{})
	reply, err := h.caller.Call(0, &msg.RecoverSim{})
	if err != nil {
		t.Fatal(err)
	}
	st := reply.Body.(*msg.StatusResp)
	if st.State != core.StatusUp {
		t.Fatalf("state = %v", st.State)
	}
	if st.Session != 2 {
		t.Errorf("session = %d, want 2", st.Session)
	}
	// The donor learned the new session.
	if got := h.sites[1].Vector().Session(0); got != 2 {
		t.Errorf("donor sees session %d", got)
	}
	// A second failure/recovery bumps again.
	h.caller.Call(0, &msg.FailSim{})
	reply, _ = h.caller.Call(0, &msg.RecoverSim{})
	if got := reply.Body.(*msg.StatusResp).Session; got != 3 {
		t.Errorf("session after second recovery = %d", got)
	}
}

func TestRecoverWhileUpIsNoop(t *testing.T) {
	h := newHarness(t, 2, 5, nil)
	reply, err := h.caller.Call(0, &msg.RecoverSim{})
	if err != nil {
		t.Fatal(err)
	}
	st := reply.Body.(*msg.StatusResp)
	if st.State != core.StatusUp || st.Session != 1 {
		t.Errorf("recover-while-up changed state: %+v", st)
	}
}

func TestDisableFailLockMaintenance(t *testing.T) {
	h := newHarness(t, 2, 5, func(c *Config) { c.DisableFailLockMaintenance = true })
	res := h.exec(t, 0, 1, []core.Op{core.Write(1, []byte("x"))})
	if !res.Committed {
		t.Fatal("txn failed")
	}
	st0 := h.sites[0].Stats()
	if st0.FailLocksSet != 0 || st0.FailLocksCleared != 0 {
		t.Error("fail-lock code ran despite being disabled")
	}
}

func TestLastWriteWinsWithinTxn(t *testing.T) {
	h := newHarness(t, 2, 5, nil)
	res := h.exec(t, 0, 1, []core.Op{
		core.Write(3, []byte("a")),
		core.Write(3, []byte("b")),
	})
	if !res.Committed {
		t.Fatal("txn failed")
	}
	for i, s := range h.sites {
		iv, _ := s.store.Get(3)
		if string(iv.Value) != "b" {
			t.Errorf("site %d value = %q", i, iv.Value)
		}
	}
}

func TestReadsSeePreTransactionState(t *testing.T) {
	h := newHarness(t, 2, 5, nil)
	h.exec(t, 0, 1, []core.Op{core.Write(2, []byte("old"))})
	res := h.exec(t, 0, 2, []core.Op{core.Write(2, []byte("new")), core.Read(2)})
	if !res.Committed {
		t.Fatal("txn failed")
	}
	if string(res.Reads[0].Value) != "old" {
		t.Errorf("read within txn = %q, want pre-transaction value", res.Reads[0].Value)
	}
}

func TestInvalidTxnAborts(t *testing.T) {
	h := newHarness(t, 2, 5, nil)
	res := h.exec(t, 0, 5, []core.Op{core.Read(99)})
	if res.Committed {
		t.Fatal("invalid txn committed")
	}
}

func TestShutdownMessage(t *testing.T) {
	h := newHarness(t, 2, 5, nil)
	if _, err := h.caller.Call(0, &msg.Shutdown{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for h.sites[0].State() != core.StatusTerminating {
		if time.Now().After(deadline) {
			t.Fatal("site never terminated")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestQuorumPolicyWiring(t *testing.T) {
	h := newHarness(t, 3, 5, func(c *Config) { c.Policy = policy.Quorum{} })
	res := h.exec(t, 0, 1, []core.Op{core.Write(1, []byte("q")), core.Read(1)})
	if !res.Committed {
		t.Fatalf("quorum txn aborted: %s", res.AbortReason)
	}
	// Reads are version-voting: pre-transaction state, via majority.
	if string(res.Reads[0].Value) != "" && res.Reads[0].Version != 0 {
		t.Errorf("quorum read = %v, want pre-transaction state", res.Reads[0])
	}
}

func TestStopIsIdempotentAndUnblocks(t *testing.T) {
	h := newHarness(t, 2, 5, nil)
	s := h.sites[0]
	done := make(chan struct{})
	go func() {
		s.Stop()
		s.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop hung")
	}
}

func TestCoordinatorFailureDiscardStaged(t *testing.T) {
	// Appendix A.2's third arm: a participant holding staged writes whose
	// coordinator never decides discards them and announces the failure.
	h := newHarness(t, 3, 5, nil)
	// Fail site 0 immediately after it would have sent a prepare. To
	// simulate, stage writes at site 1 via a forged prepare from site 0
	// (which we then fail so it never sends commit).
	if _, err := h.caller.Call(0, &msg.FailSim{}); err != nil {
		t.Fatal(err)
	}
	// Site 1 does not yet know site 0 is down; the prepare is "from" the
	// managing site in this harness, but carries site 0's staged txn.
	vec := core.NewSessionVector(3)
	reply, err := h.caller.Call(1, &msg.Prepare{
		Txn:    77,
		Vector: vec.Records(),
		Writes: []core.ItemVersion{{Item: 1, Version: 77, Value: []byte("orphan")}},
	})
	if err != nil || !reply.Body.(*msg.PrepareAck).OK {
		t.Fatalf("prepare: %v %v", reply, err)
	}
	// After the decision timeout the staged write must be gone: a late
	// read shows the old value, and no ghost write ever applies.
	time.Sleep(decisionTimeout(h.sites[1].caller.Timeout()) + 100*time.Millisecond)
	dump, err := h.caller.Call(1, &msg.DumpReq{First: 1, Last: 1})
	if err != nil {
		t.Fatal(err)
	}
	iv := dump.Body.(*msg.DumpResp).Items[0]
	if iv.Version != 0 || string(iv.Value) == "orphan" {
		t.Errorf("orphaned staged write applied: %v", iv)
	}
	// A commit arriving even later is acked but harmless.
	ack, err := h.caller.Call(1, &msg.Commit{Txn: 77})
	if err != nil || ack.Body.(*msg.CommitAck).Txn != 77 {
		t.Errorf("late commit: %v %v", ack, err)
	}
	dump, _ = h.caller.Call(1, &msg.DumpReq{First: 1, Last: 1})
	if got := dump.Body.(*msg.DumpResp).Items[0]; got.Version != 0 {
		t.Errorf("late commit applied discarded writes: %v", got)
	}
}
