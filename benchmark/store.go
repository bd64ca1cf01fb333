package main

import (
	"sync"
	"time"

	"minraid/internal/core"
	"minraid/internal/storage"
)

// storeProbe collects what the traced run sees at the storage boundary:
// every Apply and Get of every site's store, timed from outside the store.
// One probe is shared by all sites of a cluster.
type storeProbe struct {
	mu      sync.Mutex
	applyNs []int64
	getNs   int64
	gets    int64
}

// reset drops everything collected so far; the traced run calls it after
// warm-up so the numbers cover the measured phases only.
func (p *storeProbe) reset() {
	p.mu.Lock()
	p.applyNs, p.getNs, p.gets = p.applyNs[:0], 0, 0
	p.mu.Unlock()
}

// tracedStore is the storage.Store decorator installed through
// cluster.Config.StoreFactory in the traced run.
type tracedStore struct {
	storage.Store
	p *storeProbe
}

func (s tracedStore) Apply(iv core.ItemVersion) (bool, error) {
	t0 := time.Now()
	ok, err := s.Store.Apply(iv)
	d := time.Since(t0).Nanoseconds()
	s.p.mu.Lock()
	s.p.applyNs = append(s.p.applyNs, d)
	s.p.mu.Unlock()
	return ok, err
}

func (s tracedStore) Get(item core.ItemID) (core.ItemVersion, error) {
	t0 := time.Now()
	iv, err := s.Store.Get(item)
	d := time.Since(t0).Nanoseconds()
	s.p.mu.Lock()
	s.p.getNs += d
	s.p.gets++
	s.p.mu.Unlock()
	return iv, err
}
