package transport

import (
	"reflect"
	"testing"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
)

// chaosRun pushes a fixed message pattern through a fresh chaotic network
// and returns the per-link decision counters after a full drain.
func chaosRun(t *testing.T, cfg ChaosConfig, msgs int) map[LinkID]LinkStats {
	t.Helper()
	inner := NewMemory(MemoryConfig{Sites: 3})
	ch := NewChaos(inner, cfg)
	ep0, err := ch.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	ep1, err := ch.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= msgs; i++ {
		if err := ep0.Send(commitEnv(1, core.TxnID(i), uint64(i))); err != nil {
			t.Fatal(err)
		}
		if err := ep1.Send(commitEnv(2, core.TxnID(i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Send draws a message's decisions before it returns, so every one is
	// recorded by now; Close discards the messages still in flight.
	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
	return ch.Stats()
}

// TestChaosDeterministic: same (seed, config) must reproduce the exact
// same drop/dup/jitter decisions, independent of wall-clock timing.
func TestChaosDeterministic(t *testing.T) {
	cfg := ChaosConfig{Seed: 7, Drop: 0.3, Dup: 0.25, MaxJitter: time.Millisecond}
	a := chaosRun(t, cfg, 300)
	b := chaosRun(t, cfg, 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
	// The decisions as drawn when links were looked up in maps under a
	// network-wide lock (captured at that commit): a change to how Send
	// finds its link must leave every draw where it was.
	golden := map[LinkID]LinkStats{
		{From: 0, To: 1}: {Sent: 300, Dropped: 78, Duplicated: 57, JitterTotal: 109789303},
		{From: 1, To: 2}: {Sent: 300, Dropped: 85, Duplicated: 42, JitterTotal: 110929497},
	}
	if !reflect.DeepEqual(a, golden) {
		t.Fatalf("decision stream moved:\n got %v\nwant %v", a, golden)
	}
	total := LinkStats{}
	for _, s := range a {
		total.Add(s)
	}
	if total.Sent != 600 {
		t.Fatalf("sent = %d, want 600", total.Sent)
	}
	if total.Dropped == 0 || total.Duplicated == 0 || total.JitterTotal == 0 {
		t.Fatalf("faults never fired: %+v", total)
	}

	cfg.Seed = 8
	c := chaosRun(t, cfg, 300)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical decisions")
	}
}

// TestChaosLinksIndependent: the two directed links of the run draw from
// independent streams — their decisions differ even for the same pattern.
func TestChaosLinksIndependent(t *testing.T) {
	stats := chaosRun(t, ChaosConfig{Seed: 3, Drop: 0.4, MaxJitter: time.Millisecond}, 400)
	l01, l12 := stats[LinkID{From: 0, To: 1}], stats[LinkID{From: 1, To: 2}]
	if l01.Sent != 400 || l12.Sent != 400 {
		t.Fatalf("per-link sent: %+v %+v", l01, l12)
	}
	if l01.Dropped == l12.Dropped && l01.JitterTotal == l12.JitterTotal {
		t.Fatalf("links drew identical decision streams: %+v", l01)
	}
}

// TestChaosZeroConfigPassThrough: with every fault probability zero the
// decorator must be a pure pass-through — no fault pipelines at all, every
// message delivered unchanged and in order.
func TestChaosZeroConfigPassThrough(t *testing.T) {
	inner := NewMemory(MemoryConfig{Sites: 2})
	ch := NewChaos(inner, ChaosConfig{Seed: 1})
	defer ch.Close()
	a, _ := ch.Endpoint(0)
	b, _ := ch.Endpoint(1)

	const n = 50
	for i := 1; i <= n; i++ {
		if err := a.Send(commitEnv(1, core.TxnID(i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= n; i++ {
		env, ok := b.Recv()
		if !ok {
			t.Fatalf("recv %d: closed", i)
		}
		if env.Seq != uint64(i) || env.From != 0 || env.To != 1 {
			t.Fatalf("recv %d: %v", i, env)
		}
		body, ok := env.Body.(*msg.Commit)
		if !ok || body.Txn != core.TxnID(i) {
			t.Fatalf("recv %d: body %v", i, env.Body)
		}
	}
	if stats := ch.Stats(); len(stats) != 0 {
		t.Fatalf("pass-through created fault pipelines: %v", stats)
	}
	if got := inner.MessagesSent(); got != n {
		t.Fatalf("inner sent %d, want %d", got, n)
	}
}

// TestChaosDropAll: Drop=1 delivers nothing and counts everything dropped.
func TestChaosDropAll(t *testing.T) {
	stats := chaosRun(t, ChaosConfig{Seed: 1, Drop: 1}, 20)
	total := LinkStats{}
	for _, s := range stats {
		total.Add(s)
	}
	if total.Sent != 40 || total.Dropped != 40 || total.Duplicated != 0 {
		t.Fatalf("stats: %+v", total)
	}
}

// TestChaosDupAll: Dup=1 delivers every message exactly twice, in order.
func TestChaosDupAll(t *testing.T) {
	inner := NewMemory(MemoryConfig{Sites: 2})
	ch := NewChaos(inner, ChaosConfig{Seed: 1, Dup: 1})
	defer ch.Close()
	a, _ := ch.Endpoint(0)
	b, _ := ch.Endpoint(1)

	const n = 10
	for i := 1; i <= n; i++ {
		if err := a.Send(commitEnv(1, core.TxnID(i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= n; i++ {
		for copyNum := 0; copyNum < 2; copyNum++ {
			env, ok := b.Recv()
			if !ok || env.Seq != uint64(i) {
				t.Fatalf("recv %d/%d: %v %v", i, copyNum, env, ok)
			}
		}
	}
	if got := ch.Stats()[LinkID{From: 0, To: 1}].Duplicated; got != n {
		t.Fatalf("duplicated = %d, want %d", got, n)
	}
}

// TestChaosPreservesFIFO: jitter delays messages but never reorders a
// link's stream.
func TestChaosPreservesFIFO(t *testing.T) {
	inner := NewMemory(MemoryConfig{Sites: 2})
	ch := NewChaos(inner, ChaosConfig{Seed: 9, MaxJitter: 2 * time.Millisecond})
	defer ch.Close()
	a, _ := ch.Endpoint(0)
	b, _ := ch.Endpoint(1)

	const n = 60
	for i := 1; i <= n; i++ {
		if err := a.Send(commitEnv(1, core.TxnID(i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= n; i++ {
		env, ok := b.Recv()
		if !ok || env.Seq != uint64(i) {
			t.Fatalf("recv %d: got seq %d (ok=%v) — reordered", i, env.Seq, ok)
		}
	}
}

// TestChaosExemptManager: with ExemptManager set, links touching the
// managing site bypass fault injection entirely even when every other
// message is dropped.
func TestChaosExemptManager(t *testing.T) {
	inner := NewMemory(MemoryConfig{Sites: 2})
	ch := NewChaos(inner, ChaosConfig{Seed: 1, Drop: 1, ExemptManager: true})
	defer ch.Close()
	s0, _ := ch.Endpoint(0)
	mgr, _ := ch.Endpoint(core.ManagingSite)

	if err := mgr.Send(commitEnv(0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if env, ok := s0.Recv(); !ok || env.From != core.ManagingSite {
		t.Fatalf("manager->site dropped: %v %v", env, ok)
	}
	if err := s0.Send(&msg.Envelope{To: core.ManagingSite, Seq: 2, Body: &msg.CommitAck{Txn: 1}}); err != nil {
		t.Fatal(err)
	}
	if env, ok := mgr.Recv(); !ok || env.From != 0 {
		t.Fatalf("site->manager dropped: %v %v", env, ok)
	}
	if stats := ch.Stats(); len(stats) != 0 {
		t.Fatalf("manager links entered fault pipelines: %v", stats)
	}
}

// TestMemoryDelayPipelines: Delay models per-message latency, not
// bandwidth — k messages queued to one destination all arrive after about
// one Delay, not k of them (the delivery deadline is sendTime+Delay).
func TestMemoryDelayPipelines(t *testing.T) {
	const (
		k     = 8
		delay = 40 * time.Millisecond
	)
	m := NewMemory(MemoryConfig{Sites: 2, Delay: delay})
	defer m.Close()
	a, _ := m.Endpoint(0)
	b, _ := m.Endpoint(1)

	start := time.Now()
	for i := 1; i <= k; i++ {
		if err := a.Send(commitEnv(1, core.TxnID(i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= k; i++ {
		if env, ok := b.Recv(); !ok || env.Seq != uint64(i) {
			t.Fatalf("recv %d: %v %v", i, env, ok)
		}
	}
	elapsed := time.Since(start)
	if elapsed < delay {
		t.Fatalf("messages arrived after %v, before the %v delay", elapsed, delay)
	}
	// Pipelined deliveries finish in ~1 Delay; the serial model would need
	// k*Delay = 320ms. Allow generous scheduling slack.
	if limit := 2 * delay; elapsed > limit {
		t.Fatalf("draining %d messages took %v, want < %v (pipelined), serial would be %v",
			k, elapsed, limit, k*delay)
	}
}
