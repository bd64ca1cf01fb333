package transport

import (
	"testing"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
)

// TestChaosOneWayCut: an asymmetric cut (0->1 down, 1->0 up) silences
// exactly one direction — 0's requests vanish (counted as Cut, Send still
// succeeds), 1's replies deliver — and healing the link restores it.
func TestChaosOneWayCut(t *testing.T) {
	inner := NewMemory(MemoryConfig{Sites: 2})
	ch := NewChaos(inner, ChaosConfig{Seed: 1})
	defer ch.Close()
	a, _ := ch.Endpoint(0)
	b, _ := ch.Endpoint(1)

	ch.SetLinkDown(0, 1, true)

	const n = 5
	for i := 1; i <= n; i++ {
		if err := a.Send(commitEnv(1, core.TxnID(i), uint64(i))); err != nil {
			t.Fatalf("send on cut link must report acceptance, got %v", err)
		}
	}
	// The reverse direction stays alive: B's messages reach A.
	if err := b.Send(&msg.Envelope{To: 0, Seq: 1, Body: &msg.CommitAck{Txn: 1}}); err != nil {
		t.Fatal(err)
	}
	if env, ok := a.Recv(); !ok || env.From != 1 {
		t.Fatalf("reverse direction dropped: %v %v", env, ok)
	}

	stats := ch.Stats()
	if got := stats[LinkID{From: 0, To: 1}]; got.Cut != n || got.Sent != n {
		t.Fatalf("cut link stats: %+v, want Sent=Cut=%d", got, n)
	}
	if got := stats[LinkID{From: 1, To: 0}]; got.Cut != 0 {
		t.Fatalf("reverse link counted cuts: %+v", got)
	}

	// Heal: traffic flows again and the cut counter stops.
	ch.SetLinkDown(0, 1, false)
	if err := a.Send(commitEnv(1, core.TxnID(n+1), uint64(n+1))); err != nil {
		t.Fatal(err)
	}
	if env, ok := b.Recv(); !ok || env.Seq != uint64(n+1) {
		t.Fatalf("healed link did not deliver: %v %v", env, ok)
	}
	if got := ch.Stats()[LinkID{From: 0, To: 1}]; got.Cut != n {
		t.Fatalf("cut counter moved after heal: %+v", got)
	}
}

// TestChaosCutSkipsRNG: messages discarded by an administrative cut never
// touch the link's probabilistic decision stream — the surviving messages
// see exactly the decisions they would have seen on an uncut run.
func TestChaosCutSkipsRNG(t *testing.T) {
	run := func(cutFirst int) map[LinkID]LinkStats {
		inner := NewMemory(MemoryConfig{Sites: 2})
		ch := NewChaos(inner, ChaosConfig{Seed: 42, Drop: 0.5, MaxJitter: time.Millisecond})
		a, _ := ch.Endpoint(0)
		if cutFirst > 0 {
			ch.SetLinkDown(0, 1, true)
			for i := 1; i <= cutFirst; i++ {
				if err := a.Send(commitEnv(1, core.TxnID(i), uint64(i))); err != nil {
					panic(err)
				}
			}
			ch.SetLinkDown(0, 1, false)
		}
		for i := cutFirst + 1; i <= cutFirst+100; i++ {
			if err := a.Send(commitEnv(1, core.TxnID(i), uint64(i))); err != nil {
				panic(err)
			}
		}
		if err := ch.Close(); err != nil {
			panic(err)
		}
		return ch.Stats()
	}

	plain := run(0)[LinkID{From: 0, To: 1}]
	cut := run(30)[LinkID{From: 0, To: 1}]
	if cut.Cut != 30 || cut.Sent != 130 {
		t.Fatalf("cut run stats: %+v", cut)
	}
	if cut.Dropped != plain.Dropped || cut.JitterTotal != plain.JitterTotal {
		t.Fatalf("cut traffic perturbed the rng stream: plain %+v, cut %+v", plain, cut)
	}
}

// TestChaosDropAfter: a drop-after budget lets exactly n more messages
// through, then cuts the link (counted as Cut, Send still succeeds) even
// with no probabilistic fault configured; a negative budget lifts it.
func TestChaosDropAfter(t *testing.T) {
	inner := NewMemory(MemoryConfig{Sites: 2})
	ch := NewChaos(inner, ChaosConfig{})
	defer ch.Close()
	a, _ := ch.Endpoint(0)
	b, _ := ch.Endpoint(1)

	ch.SetLinkDropAfter(0, 1, 2)
	for i := 1; i <= 5; i++ {
		if err := a.Send(commitEnv(1, core.TxnID(i), uint64(i))); err != nil {
			t.Fatalf("send past the budget must report acceptance, got %v", err)
		}
	}
	if got := inner.MessagesSent(); got != 2 {
		t.Fatalf("budget of 2 delivered %d messages", got)
	}
	if got := ch.Stats()[LinkID{From: 0, To: 1}]; got.Cut != 3 || got.Sent != 3 {
		t.Fatalf("spent link stats: %+v, want Sent=Cut=3", got)
	}

	ch.SetLinkDropAfter(0, 1, -1)
	if err := a.Send(commitEnv(1, 6, 6)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []uint64{1, 2, 6} {
		if env, ok := b.Recv(); !ok || env.Seq != want {
			t.Fatalf("got %v %v, want seq %d (a spent message leaked?)", env, ok, want)
		}
	}
}
