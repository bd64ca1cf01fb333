package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
	"minraid/internal/transport"
	"minraid/internal/txn"
	"minraid/internal/workload"
)

// TestChaosRandomFailRecover is a model-checking-lite property test: under
// arbitrary interleavings of transactions, site failures and recoveries —
// constrained only so that at least one site stays up — the system must
// never violate its core invariant (every divergent copy is fail-locked),
// and transactions must only ever abort for the reasons the protocol
// defines.
func TestChaosRandomFailRecover(t *testing.T) {
	const (
		sites = 4
		items = 30
		steps = 150
	)
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c := newTestCluster(t, Config{Sites: sites, Items: items, AckTimeout: 40 * time.Millisecond})
			gen := workload.NewUniform(items, 5, seed)

			up := make([]bool, sites)
			for i := range up {
				up[i] = true
			}
			upSites := func() []core.SiteID {
				var out []core.SiteID
				for i, u := range up {
					if u {
						out = append(out, core.SiteID(i))
					}
				}
				return out
			}
			countUp := func() int { return len(upSites()) }

			validAborts := map[string]bool{
				txn.AbortNoDonor:         true,
				txn.AbortDonorDown:       true,
				txn.AbortParticipantDown: true,
				txn.AbortStaleSession:    true,
			}

			for step := 0; step < steps; step++ {
				switch r := rng.Float64(); {
				case r < 0.12 && countUp() > 1:
					// Fail a random up site (never the last one).
					ups := upSites()
					victim := ups[rng.Intn(len(ups))]
					if err := c.Fail(victim); err != nil {
						t.Fatalf("step %d: fail %s: %v", step, victim, err)
					}
					up[victim] = false
				case r < 0.30 && countUp() < sites:
					// Recover a random down site; with >=1 up site a
					// donor exists, so recovery must succeed.
					var downs []core.SiteID
					for i, u := range up {
						if !u {
							downs = append(downs, core.SiteID(i))
						}
					}
					target := downs[rng.Intn(len(downs))]
					if _, err := c.Recover(target); err != nil {
						t.Fatalf("step %d: recover %s: %v", step, target, err)
					}
					up[target] = true
				default:
					ups := upSites()
					coord := ups[rng.Intn(len(ups))]
					id := c.NextTxnID()
					res, err := c.ExecTxn(coord, id, gen.Next(id))
					if err != nil {
						t.Fatalf("step %d: txn %d on %s: %v", step, id, coord, err)
					}
					if !res.Committed && !validAborts[res.AbortReason] {
						t.Fatalf("step %d: unexplained abort: %q", step, res.AbortReason)
					}
				}
			}

			// Quiesce: bring everyone back and audit.
			for i, u := range up {
				if !u {
					if _, err := c.Recover(core.SiteID(i)); err != nil {
						t.Fatalf("final recover %d: %v", i, err)
					}
				}
			}
			report, err := c.Audit()
			if err != nil {
				t.Fatal(err)
			}
			if !report.OK() {
				t.Errorf("seed %d: %s", seed, report)
			}

			// Drain every remaining fail-lock by writing all items, then
			// the audit must be perfectly clean (no stale copies at all).
			for i := 0; i < items; i++ {
				id := c.NextTxnID()
				res, err := c.ExecTxn(core.SiteID(i%sites), id,
					[]core.Op{core.Write(core.ItemID(i), workload.Payload(id, core.ItemID(i)))})
				if err != nil || !res.Committed {
					t.Fatalf("drain write %d: %v %v", i, res, err)
				}
			}
			report, err = c.Audit()
			if err != nil {
				t.Fatal(err)
			}
			if !report.OK() || report.StaleCopies != 0 {
				t.Errorf("seed %d after drain: %s (stale=%d)", seed, report, report.StaleCopies)
			}
		})
	}
}

// TestDuplicateStorm: every site-to-site message is delivered twice
// (transport.Chaos with Dup=1). Per-sender sequence suppression in the
// site receive loop must absorb the replays — without it a duplicated
// Prepare arriving after its Commit would re-stage the transaction, leak
// a decision timer and fire a spurious failure announcement. Every
// transaction must commit and the audit must be clean, exactly as on a
// reliable network.
func TestDuplicateStorm(t *testing.T) {
	c := newTestCluster(t, Config{
		Sites:      3,
		Items:      10,
		AckTimeout: 40 * time.Millisecond,
		Chaos:      &transport.ChaosConfig{Seed: 1, Dup: 1, ExemptManager: true},
	})
	gen := workload.NewUniform(10, 5, 1)

	for i := 0; i < 30; i++ {
		// Exercise the full state machine under duplication, including a
		// mid-run failure and recovery.
		if i == 10 {
			if err := c.Fail(1); err != nil {
				t.Fatal(err)
			}
		}
		if i == 20 {
			if _, err := c.Recover(1); err != nil {
				t.Fatal(err)
			}
		}
		coord := core.SiteID(i % 3)
		if i >= 10 && i < 20 && coord == 1 {
			coord = 0
		}
		id := c.NextTxnID()
		res, err := c.ExecTxn(coord, id, gen.Next(id))
		if err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
		if !res.Committed {
			// The one legitimate abort: the first transaction touching
			// site 1 after its (real) failure detects it and runs the
			// type-2 announcement. Anything else is duplication damage.
			if i == 10 && res.AbortReason == txn.AbortParticipantDown {
				continue
			}
			t.Fatalf("txn %d aborted under pure duplication: %q", i, res.AbortReason)
		}
	}

	report, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Errorf("audit after duplicate storm: %s", report)
	}
	total := transport.LinkStats{}
	for _, s := range c.ChaosStats() {
		total.Add(s)
	}
	if total.Duplicated == 0 || total.Duplicated != total.Sent {
		t.Fatalf("duplication never fired: %+v", total)
	}
}

// TestAsymmetricLinkLoss: site 1's messages to site 0 are lost while the
// reverse direction works. Each side eventually declares the other failed
// and proceeds alone — the same split brain as a symmetric partition, and
// the audit must flag the divergence once the link heals.
func TestAsymmetricLinkLoss(t *testing.T) {
	c := newTestCluster(t, Config{Sites: 2, Items: 4, AckTimeout: 40 * time.Millisecond})
	c.SetLinkDown(1, 0, true)

	// Coordinator 0: its prepare reaches 1, but the ack is lost -> abort
	// + type 2 (the announcement to 1 is delivered; 1 ignores news about
	// itself).
	res, err := c.Exec(0, []core.Op{core.Write(1, []byte("a"))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("commit without receiving the ack")
	}
	// Coordinator 1: its prepare never arrives -> abort + type 2.
	res, err = c.Exec(1, []core.Op{core.Write(1, []byte("b"))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("commit without reaching the peer")
	}
	// Both now run solo and commit conflicting values.
	if res, _ := c.Exec(0, []core.Op{core.Write(1, []byte("only-0"))}); !res.Committed {
		t.Fatalf("site 0 solo write aborted: %s", res.AbortReason)
	}
	if res, _ := c.Exec(1, []core.Op{core.Write(1, []byte("only-1"))}); !res.Committed {
		t.Fatalf("site 1 solo write aborted: %s", res.AbortReason)
	}

	c.SetLinkDown(1, 0, false)
	report, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if report.OK() {
		t.Error("audit missed the asymmetric-partition divergence")
	}
}

// TestChaosDupConcurrentCoordinator: on a duplicating link every prepare
// is sent twice, while the concurrent coordinator goes on to stamp its
// commit versions into the write set the prepares carried. That is safe
// only because every wire, chaos included, encodes both copies before
// Send returns; run under -race, this test catches a wire that holds an
// envelope past Send. Duplicate prepares can hold a participant's vote
// past the ack timeout, so aborts and the suspicions they leave behind are
// not this test's subject.
func TestChaosDupConcurrentCoordinator(t *testing.T) {
	const (
		sites   = 4
		items   = 64
		clients = 8
		perC    = 100
	)
	c := newTestCluster(t, Config{
		Sites: sites, Items: items,
		ConcurrentTxns: 8,
		AckTimeout:     100 * time.Millisecond,
		Chaos:          &transport.ChaosConfig{Seed: 1, Dup: 1, ExemptManager: true},
	})
	var wg sync.WaitGroup
	var committed atomic.Int64
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perC; i++ {
				a := core.ItemID(rng.Intn(items))
				b := (a + 1 + core.ItemID(rng.Intn(items-1))) % items
				ops := []core.Op{core.Write(a, val(i)), core.Write(b, val(i))}
				res, err := c.ExecTxn(core.SiteID(rng.Intn(sites)), c.NextTxnID(), ops)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Committed {
					committed.Add(1)
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	if committed.Load() == 0 {
		t.Fatal("nothing committed under pure duplication")
	}
}

// TestLinkCutsOnEitherWire: a cluster built without Config.Chaos still
// runs its one fault layer, on the memory wire and on the loopback TCP
// fabric alike — a partition cuts and heals, a drop-after budget lets
// exactly one more message through, and ChaosStats counts what both
// discarded as Cut.
func TestLinkCutsOnEitherWire(t *testing.T) {
	for name, wire := range map[string]string{"memory": "", "tcp": "tcp"} {
		t.Run(name, func(t *testing.T) {
			c := newTestCluster(t, Config{Sites: 3, Items: 4, Transport: wire})
			exec := func(coord core.SiteID, ops ...core.Op) *msg.TxnResult {
				t.Helper()
				res, err := c.ExecTxn(coord, c.NextTxnID(), ops)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			cut := func(from, to core.SiteID) uint64 {
				return c.ChaosStats()[transport.LinkID{From: from, To: to}].Cut
			}
			recover2 := func() {
				t.Helper()
				if err := c.Fail(2); err != nil {
					t.Fatal(err)
				}
				if _, err := c.Recover(2); err != nil {
					t.Fatal(err)
				}
			}

			// Cut site 2 off: the first write aborts on its silence, and
			// the next commits on the majority side with 2 fail-locked.
			c.Partition([]core.SiteID{2}, []core.SiteID{0, 1}, true)
			if res := exec(0, core.Write(0, val(1))); res.Committed {
				t.Fatal("write committed across a partition")
			}
			if res := exec(0, core.Write(0, val(2))); !res.Committed {
				t.Fatalf("majority-side write aborted: %s", res.AbortReason)
			}
			if cut(0, 2) == 0 {
				t.Fatalf("partition discarded nothing on 0->2: %v", c.ChaosStats())
			}
			// Heal: 2's recovery crosses the healed links, and its copier
			// fetches what it missed.
			c.Partition([]core.SiteID{2}, []core.SiteID{0, 1}, false)
			recover2()
			if res := exec(2, core.Read(0)); !res.Committed || !bytes.Equal(res.Reads[0].Value, val(2)) {
				t.Fatalf("read at 2 after heal: %v", res)
			}

			// Site 2 may send 0 one more message, its prepare-ack: the
			// write commits, its commit-ack is cut, and 0 declares 2 down.
			before := cut(2, 0)
			c.SetLinkDropAfter(2, 0, 1)
			if res := exec(0, core.Write(1, val(3))); !res.Committed {
				t.Fatalf("prepare-ack did not get through: %s", res.AbortReason)
			}
			if st, err := c.Status(0, false); err != nil || st.Vector[2].Status != core.StatusDown {
				t.Fatalf("commit-ack got through past the budget: %v %v", st, err)
			}
			if cut(2, 0) == before {
				t.Fatal("spent budget discarded nothing on 2->0")
			}
			c.SetLinkDropAfter(2, 0, -1)
			recover2()
			if report, err := c.Audit(); err != nil || !report.OK() {
				t.Fatalf("audit: %v %v", report, err)
			}
		})
	}
}
