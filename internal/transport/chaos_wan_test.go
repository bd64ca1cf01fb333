package transport

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
)

// TestChaosBaseDelayFloor: a per-link BaseDelay is a deterministic
// propagation floor — every delivery waits at least BaseDelay, the floor
// never enters JitterTotal, and queued messages pipeline (k messages
// cost ~1 BaseDelay, not k).
func TestChaosBaseDelayFloor(t *testing.T) {
	const (
		k    = 8
		base = 40 * time.Millisecond
	)
	inner := NewMemory(MemoryConfig{Sites: 2})
	ch := NewChaos(inner, ChaosConfig{
		Seed: 1,
		Links: map[LinkID]LinkChaos{
			{From: 0, To: 1}: {BaseDelay: base},
		},
	})
	defer ch.Close()
	a, _ := ch.Endpoint(0)
	b, _ := ch.Endpoint(1)

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
	if elapsed < base {
		t.Fatalf("messages arrived after %v, under the %v base delay", elapsed, base)
	}
	if limit := 2 * base; elapsed > limit {
		t.Fatalf("draining %d messages took %v, want < %v (pipelined), serial would be %v",
			k, elapsed, limit, k*base)
	}
	st := ch.Stats()[LinkID{From: 0, To: 1}]
	if st.Sent != k || st.Dropped != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.JitterTotal != 0 {
		t.Fatalf("base delay leaked into JitterTotal: %v", st.JitterTotal)
	}
}

// TestChaosPerMsgCostSerializes: PerMsgCost models wire occupancy — k
// messages on one link take at least k*cost, the opposite of the
// pipelined BaseDelay.
func TestChaosPerMsgCostSerializes(t *testing.T) {
	const (
		k    = 10
		cost = 5 * time.Millisecond
	)
	inner := NewMemory(MemoryConfig{Sites: 2})
	ch := NewChaos(inner, ChaosConfig{
		Seed: 1,
		Links: map[LinkID]LinkChaos{
			{From: 0, To: 1}: {PerMsgCost: cost},
		},
	})
	defer ch.Close()
	a, _ := ch.Endpoint(0)
	b, _ := ch.Endpoint(1)

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
	if elapsed := time.Since(start); elapsed < k*cost {
		t.Fatalf("draining %d messages took %v, want >= %v (serialized wire)", k, elapsed, k*cost)
	}
}

// TestChaosLinkOverridesAreScoped: a per-link override applies to that
// directed link only; every other link keeps the global config.
func TestChaosLinkOverridesAreScoped(t *testing.T) {
	inner := NewMemory(MemoryConfig{Sites: 2})
	ch := NewChaos(inner, ChaosConfig{
		Seed: 3,
		Links: map[LinkID]LinkChaos{
			{From: 0, To: 1}: {Drop: 1},
		},
	})
	defer ch.Close()
	a, _ := ch.Endpoint(0)
	b, _ := ch.Endpoint(1)

	const n = 10
	for i := 1; i <= n; i++ {
		if err := a.Send(commitEnv(1, core.TxnID(i), uint64(i))); err != nil {
			t.Fatal(err)
		}
		if err := b.Send(commitEnv(0, core.TxnID(i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// The overridden direction drops everything; the reverse direction has
	// no active config at all and passes straight through.
	for i := 1; i <= n; i++ {
		if env, ok := a.Recv(); !ok || env.Seq != uint64(i) {
			t.Fatalf("reverse recv %d: %v %v", i, env, ok)
		}
	}
	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
	st := ch.Stats()
	if got := st[LinkID{From: 0, To: 1}]; got.Sent != n || got.Dropped != n {
		t.Fatalf("overridden link stats: %+v", got)
	}
	if _, ok := st[LinkID{From: 1, To: 0}]; ok {
		t.Fatalf("inactive reverse link entered a fault pipeline: %+v", st)
	}
}

// TestChaosBaseDelayDeterministicFingerprint: adding a base-delay floor
// changes wall-clock timing but not the decision streams — two runs with
// the same seed still produce identical counters, including JitterTotal.
func TestChaosBaseDelayDeterministicFingerprint(t *testing.T) {
	cfg := ChaosConfig{
		Seed: 7, Drop: 0.2, Dup: 0.2, MaxJitter: time.Millisecond,
		Links: map[LinkID]LinkChaos{
			{From: 0, To: 1}: {Drop: 0.2, Dup: 0.2, MaxJitter: time.Millisecond, BaseDelay: 2 * time.Millisecond},
		},
	}
	a := chaosRun(t, cfg, 200)
	b := chaosRun(t, cfg, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged with a base-delay link:\n%v\n%v", a, b)
	}
	if a[LinkID{From: 0, To: 1}].JitterTotal == 0 {
		t.Fatal("jitter never fired on the overridden link")
	}
}

// TestChaosDueTimeRule checks a link's due times without a clock: a burst
// of k on PerMsgCost c is spaced c apart, jitter never puts a message due
// before its predecessor, and each due respects the propagation floor.
func TestChaosDueTimeRule(t *testing.T) {
	const c = 20 * time.Microsecond
	now := time.Unix(1000, 0)
	l := &chaosLink{cfg: LinkChaos{PerMsgCost: c}, rng: rand.New(rand.NewSource(1))}
	for i := 1; i <= 8; i++ {
		if due, dropped, _ := l.decide(now); dropped || !due.Equal(now.Add(time.Duration(i)*c)) {
			t.Fatalf("burst message %d due %v (dropped %v), want now+%v", i, due.Sub(now), dropped, time.Duration(i)*c)
		}
	}
	// A message offered after the wire went idle pays one c from its offer.
	idle := now.Add(time.Second)
	if due, _, _ := l.decide(idle); !due.Equal(idle.Add(c)) {
		t.Fatalf("idle-link message due %v after its offer, want %v", due.Sub(idle), c)
	}

	const base, maxJitter = time.Millisecond, 5 * time.Millisecond
	l = &chaosLink{cfg: LinkChaos{BaseDelay: base, MaxJitter: maxJitter, PerMsgCost: c}, rng: rand.New(rand.NewSource(2))}
	var prev time.Time
	overtaken := 0 // messages whose own draw alone would have put them first
	for i := 0; i < 1000; i++ {
		at := now.Add(time.Duration(i) * 50 * time.Microsecond)
		before := l.stats.JitterTotal
		due, _, _ := l.decide(at)
		own := at.Add(base + l.stats.JitterTotal - before)
		if due.Before(own) {
			t.Fatalf("message %d due %v before its propagation floor %v", i, due, own)
		}
		if i > 0 && due.Before(prev.Add(c)) {
			t.Fatalf("message %d due %v, under c after its predecessor's %v", i, due, prev)
		}
		if own.Before(prev) {
			overtaken++
		}
		prev = due
	}
	if overtaken == 0 {
		t.Fatal("jitter never tried to reorder the link; the check above proved nothing")
	}
}

// TestChaosDupSharesDue: a duplicate is queued with its original's due
// time, right behind it. The link's base delay is an hour, so nothing
// pops and the inbox is read as queued.
func TestChaosDupSharesDue(t *testing.T) {
	inner := NewMemory(MemoryConfig{Sites: 2})
	ch := NewChaos(inner, ChaosConfig{
		Seed:  1,
		Links: map[LinkID]LinkChaos{{From: 0, To: 1}: {Dup: 1, BaseDelay: time.Hour}},
	})
	defer ch.Close()
	a, _ := ch.Endpoint(0)
	ch.Endpoint(1)
	for i := 1; i <= 3; i++ {
		if err := a.Send(commitEnv(1, core.TxnID(i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	q := inner.eps[1].inbox
	q.mu.Lock()
	items := append([]timed[*msg.Envelope](nil), q.items[q.head:]...)
	q.mu.Unlock()
	if len(items) != 6 {
		t.Fatalf("inbox holds %d messages, want 3 originals and 3 duplicates", len(items))
	}
	for i := 0; i < 6; i += 2 {
		orig, dup := items[i], items[i+1]
		if want := uint64(i/2 + 1); orig.item.Seq != want || dup.item.Seq != want {
			t.Fatalf("slots %d,%d hold seqs %d,%d, want %d twice", i, i+1, orig.item.Seq, dup.item.Seq, want)
		}
		if !dup.due.Equal(orig.due) {
			t.Fatalf("seq %d: duplicate due %v, original %v", orig.item.Seq, dup.due, orig.due)
		}
	}
}

// TestChaosBaseDelayFloorTCP: over a loopback TCP pair a chaotic link's
// due time holds the message in the sender's writer queue, so no delivery
// beats the base delay and the link stays in order.
func TestChaosBaseDelayFloorTCP(t *testing.T) {
	const (
		k    = 8
		base = 40 * time.Millisecond
	)
	nets := newTCPMesh(t, 2)
	ch := NewChaos(nets[0], ChaosConfig{
		Seed:  1,
		Links: map[LinkID]LinkChaos{{From: 0, To: 1}: {BaseDelay: base}},
	})
	a, err := ch.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := nets[1].Endpoint(1)
	start := time.Now()
	for i := 1; i <= k; i++ {
		if err := a.Send(commitEnv(1, core.TxnID(i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= k; i++ {
		env, ok := b.Recv()
		if !ok || env.Seq != uint64(i) {
			t.Fatalf("recv %d: %v %v", i, env, ok)
		}
		if elapsed := time.Since(start); elapsed < base {
			t.Fatalf("message %d arrived after %v, under the %v base delay", i, elapsed, base)
		}
	}
	if st := ch.Stats()[LinkID{From: 0, To: 1}]; st.Sent != k || st.JitterTotal != 0 {
		t.Fatalf("stats: %+v", st)
	}
}
