package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"minraid/internal/cluster"
	"minraid/internal/core"
	"minraid/internal/geo"
	"minraid/internal/storage"
	"minraid/internal/transport"
)

// deployment is one running cluster of a workload plus what the benchmark
// needs to take it down and to look at its stores from outside.
type deployment struct {
	spec Spec
	c    *cluster.Cluster
	// wals are the sites' durable stores, in site order (nil without WAL).
	wals []*storage.WALStore
	// dir holds the WAL directories, one per site ("" without WAL).
	dir string
}

// deploy builds and starts the workload's cluster. dir is where a WAL
// workload puts its logs. A non-nil probe wraps every site's store in the
// timing decorator.
func deploy(spec Spec, seed uint64, dir string, probe *storeProbe) (*deployment, error) {
	d := &deployment{spec: spec}
	cfg := cluster.Config{
		Sites:          spec.Sites,
		Items:          spec.Items,
		AckTimeout:     spec.AckTimeout,
		ConcurrentTxns: spec.Concurrent,
		LockWaitBudget: spec.LockWaitBudget,
		CommitEpoch:    spec.CommitEpoch,
	}
	var err error
	if cfg.Chaos, err = spec.chaos(seed); err != nil {
		return nil, err
	}
	if spec.WAL {
		d.dir = dir
	}
	cfg.StoreFactory = func(id core.SiteID) (storage.Store, error) {
		var store storage.Store
		if spec.WAL {
			w, err := storage.OpenWAL(d.walOptions(id))
			if err != nil {
				return nil, err
			}
			d.wals = append(d.wals, w)
			store = w
		} else {
			store = storage.NewMemStore(spec.Items, nil)
		}
		if probe != nil {
			store = tracedStore{Store: store, p: probe}
		}
		return store, nil
	}
	c, err := cluster.New(cfg)
	if err != nil {
		d.closeStores()
		return nil, err
	}
	d.c = c
	return d, nil
}

// chaos is the workload's link configuration: nil on a LAN, the compiled
// WAN profile (latency and wire cost only, managing-site links exempt)
// otherwise.
func (spec Spec) chaos(seed uint64) (*transport.ChaosConfig, error) {
	if spec.WAN == "" {
		return nil, nil
	}
	profile, err := geo.Lookup(spec.WAN)
	if err != nil {
		return nil, err
	}
	wan, err := geo.Compile(profile, spec.Sites, wanSeed)
	if err != nil {
		return nil, err
	}
	return &transport.ChaosConfig{Seed: int64(seed), Links: wan.Links, ExemptManager: true}, nil
}

// walOptions opens a site's log without fsync. In the sandbox the
// baseline was taken in, the virtual disk's flush time drifts by 15 %
// between one twenty-second stretch and the next (fsync alone: 3300 to
// 4400 per second), so every number of an fsync-bound workload inherits a
// spread wider than any bound the benchmark may set. Without the flush the
// log is still framed, batched by the group committer and written through
// the file system on every Apply, and the replay gate still holds.
func (d *deployment) walOptions(id core.SiteID) storage.WALOptions {
	return storage.WALOptions{
		Dir:         filepath.Join(d.dir, fmt.Sprintf("site%d", id)),
		Items:       d.spec.Items,
		GroupCommit: true,
	}
}

func (d *deployment) closeStores() error {
	var first error
	for _, w := range d.wals {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	d.wals = nil
	return first
}

// close stops the cluster and closes the stores; the WAL files stay.
func (d *deployment) close() error {
	d.c.Close()
	return d.closeStores()
}

// remove deletes the deployment's files.
func (d *deployment) remove() error {
	if d.dir == "" {
		return nil
	}
	return os.RemoveAll(d.dir)
}

// walBytes is the total size of the sites' WAL directories, stat'ed from
// outside the store.
func (d *deployment) walBytes() (int64, error) {
	if d.dir == "" {
		return 0, nil
	}
	var total int64
	err := filepath.Walk(d.dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// snapshots counts the sites that have written a snapshot file — each
// compaction rewrites it, and a fresh directory has none.
func (d *deployment) snapshots() int {
	n := 0
	for id := 0; id < d.spec.Sites && d.dir != ""; id++ {
		if _, err := os.Stat(filepath.Join(d.dir, fmt.Sprintf("site%d", id), "snapshot")); err == nil {
			n++
		}
	}
	return n
}

// settle polls the cross-site audit until it is clean with no stale copy:
// under epoch commit the reply to the client precedes the commit fan-out,
// so copies differ for about two round trips after the last reply. It
// returns how long the cluster took to become clean (up to the start of
// the first clean audit) and how long that audit took.
func (d *deployment) settle(limit time.Duration) (settled, audit time.Duration, err error) {
	start := time.Now()
	for {
		t0 := time.Now()
		rep, err := d.c.Audit()
		if err != nil {
			return 0, 0, err
		}
		if rep.OK() && rep.StaleCopies == 0 {
			return t0.Sub(start), time.Since(t0), nil
		}
		if time.Since(start) > limit {
			return 0, 0, fmt.Errorf("cluster did not settle within %v: %s, %d stale copies", limit, rep, rep.StaleCopies)
		}
		time.Sleep(time.Millisecond)
	}
}
