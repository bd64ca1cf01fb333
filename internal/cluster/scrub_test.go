package cluster_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"minraid/internal/cluster"
	"minraid/internal/core"
)

func newCluster(t *testing.T, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	if cfg.AckTimeout == 0 {
		cfg.AckTimeout = 50 * time.Millisecond
	}
	if cfg.ManagerTimeout == 0 {
		cfg.ManagerTimeout = 10 * time.Second
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// failAndDetect fails victim and runs one write at detector so the group
// announces the failure and later writes commit with fail-locks.
func failAndDetect(t *testing.T, c *cluster.Cluster, victim, detector core.SiteID) {
	t.Helper()
	if err := c.Fail(victim); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec(detector, []core.Op{core.Write(0, []byte("detect"))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("detection txn unexpectedly committed")
	}
}

func val(n int) []byte { return []byte(fmt.Sprintf("v%d", n)) }

// mustWrite commits one write or fails the test.
func mustWrite(t *testing.T, c *cluster.Cluster, coord core.SiteID, item core.ItemID, v []byte) {
	t.Helper()
	res, err := c.Exec(coord, []core.Op{core.Write(item, v)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("write of item %d aborted: %s", item, res.AbortReason)
	}
}

// TestScrubHealsStaleSetInBackground: after an outage and a recovery, the
// scrubber alone — no foreground reads — drives the recovered site's
// fail-locks to zero.
func TestScrubHealsStaleSetInBackground(t *testing.T) {
	c := newCluster(t, cluster.Config{Sites: 3, Items: 12})
	failAndDetect(t, c, 1, 0)
	for i := 0; i < 10; i++ {
		mustWrite(t, c, 0, core.ItemID(i), val(i))
	}
	if _, err := c.Recover(1); err != nil {
		t.Fatal(err)
	}
	if n, _ := c.FailLockCount(1, 1); n != 10 {
		t.Fatalf("stale set after recovery = %d, want 10", n)
	}

	scr := cluster.NewScrubber(c.Manager, cluster.ScrubConfig{BatchSize: 3})
	scr.Start()
	defer scr.Stop()
	if !scr.WaitClean(5 * time.Second) {
		t.Fatal("scrubber never drove the stale set to zero")
	}
	scr.Stop()

	st := scr.Stats()
	if st.ItemsScrubbed < 10 {
		t.Errorf("ItemsScrubbed = %d, want >= 10", st.ItemsScrubbed)
	}
	if st.Copiers == 0 {
		t.Error("no copier transactions recorded")
	}
	report, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Error(report)
	}
	// The healed copies really carry the missed writes.
	dump, err := c.Dump(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !bytes.Equal(dump[i].Value, val(i)) {
			t.Errorf("item %d at recovered site = %q, want %q", i, dump[i].Value, val(i))
		}
	}
}

// TestRecoveryServesCleanReadsBeforeHeal: every recovery is operational
// at type-1. The recovered site commits a read of a clean item — no
// copier — while its stale set is still entirely unhealed, serves a
// fail-locked item through a demand copier, and the scrubber heals the
// remainder.
func TestRecoveryServesCleanReadsBeforeHeal(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  cluster.Config
	}{
		{"demand", cluster.Config{Sites: 3, Items: 10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, tc.cfg)
			failAndDetect(t, c, 2, 0)
			for i := 0; i < 5; i++ {
				mustWrite(t, c, 0, core.ItemID(i), val(i))
			}
			st, err := c.Recover(2)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != core.StatusUp {
				t.Fatalf("recovery left site 2 %v", st.State)
			}
			if n, _ := c.FailLockCount(2, 2); n != 5 {
				t.Fatalf("stale set after recovery = %d, want 5", n)
			}

			// Clean read at the recovering coordinator, before anything healed.
			res, err := c.Exec(2, []core.Op{core.Read(8)})
			if err != nil || !res.Committed {
				t.Fatalf("clean read at recovered site: %v %v", res, err)
			}
			if res.Copiers != 0 {
				t.Errorf("clean read ran %d copiers", res.Copiers)
			}
			if n, _ := c.FailLockCount(2, 2); n != 5 {
				t.Error("clean read disturbed the stale set")
			}

			// Fail-locked read serves through the demand-copier path.
			res, err = c.Exec(2, []core.Op{core.Read(1)})
			if err != nil || !res.Committed {
				t.Fatalf("stale read at recovered site: %v %v", res, err)
			}
			if res.Copiers == 0 {
				t.Error("stale read ran no demand copier")
			}
			if !bytes.Equal(res.Reads[0].Value, val(1)) {
				t.Errorf("stale read returned %q, want %q", res.Reads[0].Value, val(1))
			}
			if c.Registry(2).Counter("copiers.demand") == 0 {
				t.Error("demand-copier counter empty")
			}

			// The scrubber heals the rest.
			scr := cluster.NewScrubber(c.Manager, cluster.ScrubConfig{BatchSize: 2})
			scr.Start()
			defer scr.Stop()
			if !scr.WaitClean(5 * time.Second) {
				t.Fatal("scrubber never drove the stale set to zero")
			}
			scr.Stop()
			if st := scr.Stats(); st.ItemsScrubbed < 4 {
				t.Errorf("ItemsScrubbed = %d, want >= 4", st.ItemsScrubbed)
			}
			report, err := c.Audit()
			if err != nil {
				t.Fatal(err)
			}
			if !report.OK() {
				t.Error(report)
			}
		})
	}
}

// TestScrubRateThrottles: a finite items/sec budget makes the scrubber
// wait between batches but still converge.
func TestScrubRateThrottles(t *testing.T) {
	c := newCluster(t, cluster.Config{Sites: 2, Items: 30})
	failAndDetect(t, c, 1, 0)
	for i := 0; i < 20; i++ {
		mustWrite(t, c, 0, core.ItemID(i), val(i))
	}
	if _, err := c.Recover(1); err != nil {
		t.Fatal(err)
	}

	scr := cluster.NewScrubber(c.Manager, cluster.ScrubConfig{Rate: 400, BatchSize: 4})
	scr.Start()
	defer scr.Stop()
	if !scr.WaitClean(10 * time.Second) {
		t.Fatal("throttled scrubber never converged")
	}
	scr.Stop()
	st := scr.Stats()
	if st.Throttles == 0 {
		t.Error("rate budget never throttled a 20-item backlog at burst 4")
	}
	if st.ItemsScrubbed < 20 {
		t.Errorf("ItemsScrubbed = %d, want >= 20", st.ItemsScrubbed)
	}
}

// TestScrubRacesForegroundTraffic is the concurrent-mode -race
// regression: the scrubber, demand copiers and foreground writers all
// work the same items, and the scrub must never resurrect a stale
// version over a newer committed write (storage.Apply keeps the newer
// version; 2PL serializes the rest) — the audit is the oracle.
func TestScrubRacesForegroundTraffic(t *testing.T) {
	const items = 8
	c := newCluster(t, cluster.Config{Sites: 3, Items: items, ConcurrentTxns: 4})
	failAndDetect(t, c, 1, 0)
	for i := 0; i < items; i++ {
		mustWrite(t, c, 0, core.ItemID(i), val(i))
	}
	if _, err := c.Recover(1); err != nil {
		t.Fatal(err)
	}

	scr := cluster.NewScrubber(c.Manager, cluster.ScrubConfig{BatchSize: 2})
	scr.Start()
	defer scr.Stop()

	// Writers at sites 0 and 2, a reader at the recovered site 1 whose
	// reads run demand copiers — all racing the scrub batches on the
	// same 8 items. Retriable aborts (lock-wait timeouts) are
	// expected under contention; transport errors are not.
	var wg sync.WaitGroup
	errc := make(chan error, 3)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				item := core.ItemID((w*5 + i) % items)
				var ops []core.Op
				coord := core.SiteID(0)
				switch w {
				case 0:
					ops = []core.Op{core.Write(item, []byte(fmt.Sprintf("w0-%d", i)))}
				case 1:
					coord = 2
					ops = []core.Op{core.Write(item, []byte(fmt.Sprintf("w2-%d", i)))}
				default:
					coord = 1
					ops = []core.Op{core.Read(item)}
				}
				if _, err := c.Exec(coord, ops); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	if !scr.WaitClean(10 * time.Second) {
		t.Fatal("scrubber never converged under racing traffic")
	}
	scr.Stop()
	report, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Error(report)
	}
}
