package storage

import (
	"fmt"
	"sync"

	"minraid/internal/core"
)

// MemStore is the paper-faithful store: every copy lives in the site
// process's memory, reads and writes cost no I/O. It is safe for concurrent
// use; the site event loop is the usual single writer, but status dumps and
// audits may read concurrently.
type MemStore struct {
	mu     sync.RWMutex
	copies []core.ItemVersion
}

// NewMemStore returns a store of items copies, all at version 0 with the
// given initial value (which may be nil).
func NewMemStore(items int, initial []byte) *MemStore {
	if items <= 0 {
		panic(fmt.Sprintf("storage: item count %d out of range", items))
	}
	copies := make([]core.ItemVersion, items)
	for i := range copies {
		copies[i] = core.ItemVersion{Item: core.ItemID(i), Version: 0, Value: cloneBytes(initial)}
	}
	return &MemStore{copies: copies}
}

// Items implements Store.
func (s *MemStore) Items() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.copies)
}

// Get implements Store.
func (s *MemStore) Get(item core.ItemID) (core.ItemVersion, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(item) >= len(s.copies) {
		return core.ItemVersion{}, fmt.Errorf("%w: %d of %d", ErrNoItem, item, len(s.copies))
	}
	iv := s.copies[item]
	iv.Value = cloneBytes(iv.Value)
	return iv, nil
}

// Apply implements Store.
func (s *MemStore) Apply(iv core.ItemVersion) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyLocked(iv)
}

func (s *MemStore) applyLocked(iv core.ItemVersion) (bool, error) {
	if int(iv.Item) >= len(s.copies) {
		return false, fmt.Errorf("%w: %d of %d", ErrNoItem, iv.Item, len(s.copies))
	}
	cur := &s.copies[iv.Item]
	if iv.Version < cur.Version {
		return false, nil // stale copy: keep the newer one
	}
	cur.Version = iv.Version
	cur.Value = cloneBytes(iv.Value)
	return true, nil
}

// Dump implements Store.
func (s *MemStore) Dump(first, last core.ItemID) ([]core.ItemVersion, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	first, last, err := validRange(len(s.copies), first, last)
	if err != nil {
		return nil, err
	}
	out := make([]core.ItemVersion, 0, last-first+1)
	for i := first; i <= last; i++ {
		iv := s.copies[i]
		iv.Value = cloneBytes(iv.Value)
		out = append(out, iv)
	}
	return out, nil
}

// Versions implements Store.
func (s *MemStore) Versions() []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]uint64, len(s.copies))
	for i, iv := range s.copies {
		out[i] = uint64(iv.Version)
	}
	return out
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

var _ Store = (*MemStore)(nil)
