// Package storage holds a site's copy of the replicated database.
//
// The paper's mini-RAID "kept data copies within the virtual memory of each
// process which represented a site" (§1.2, assumption 3), which MemStore
// reproduces. WALStore adds the durable path the full RAID system would
// have — an append-only, CRC-framed log with snapshot compaction — so the
// I/O overhead the paper factored out can be measured as an ablation.
//
// Every copy is versioned: Version is the TxnID of the writing transaction,
// which under serial processing totally orders writes. Stores never regress
// a copy: applying an older version than the one held is an idempotent
// no-op, which makes commit retries and copier/commit races harmless.
package storage

import (
	"errors"
	"fmt"

	"minraid/internal/core"
)

// Errors returned by stores.
var (
	// ErrNoItem is returned for an item outside the database.
	ErrNoItem = errors.New("storage: no such item")
	// ErrClosed is returned by operations on a closed store.
	ErrClosed = errors.New("storage: closed")
)

// Store is one site's copy of the fully replicated database.
type Store interface {
	// Items returns the database size.
	Items() int
	// Get returns the local copy of item.
	Get(item core.ItemID) (core.ItemVersion, error)
	// Apply installs a committed copy. It returns true if the copy was
	// newer than the one held and was installed, false if it was stale
	// and ignored.
	Apply(iv core.ItemVersion) (bool, error)
	// Dump returns the copies of items in [first, last], ascending.
	Dump(first, last core.ItemID) ([]core.ItemVersion, error)
	// Versions returns every copy's version, indexed by item, without
	// copying the values.
	Versions() []uint64
	// Close releases resources. A MemStore Close is a no-op; a WALStore
	// Close flushes and closes the log.
	Close() error
}

// validRange normalizes and checks a dump range against the store size.
func validRange(items int, first, last core.ItemID) (core.ItemID, core.ItemID, error) {
	if int(first) >= items {
		return 0, 0, fmt.Errorf("%w: first %d of %d", ErrNoItem, first, items)
	}
	if int(last) >= items {
		last = core.ItemID(items - 1)
	}
	if last < first {
		return 0, 0, fmt.Errorf("%w: empty range %d..%d", ErrNoItem, first, last)
	}
	return first, last, nil
}
