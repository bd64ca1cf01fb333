// Package lockmgr implements a strict two-phase-locking lock manager with
// shared/exclusive item locks, lock upgrades, FIFO fairness, waits-for
// deadlock detection and acquisition timeouts.
//
// The paper's mini-RAID deliberately factored concurrency control out
// ("our system did not include concurrency control and transactions were
// processed serially", §1.2, assumption 2) and names re-running the
// protocol "taking into account ... concurrency control" as future work
// (§5). This package is that substrate: the complete-RAID integration
// point for interleaved transaction execution. Its concept of a lock also
// anchors the paper's fail-lock analogy ("this idea is adopted from the
// concept of a lock in concurrency control algorithms", §1.1).
//
// The lock table is sharded into stripes keyed by item hash, so
// transactions touching disjoint items take disjoint mutexes and the
// manager scales with the concurrency degree instead of serializing every
// grant behind one lock. Grants, releases and timeouts touch only the
// item's stripe; deadlock detection is the one cross-stripe operation: it
// locks all stripes in index order (a fixed order, so two concurrent
// detections cannot deadlock on the stripe mutexes themselves) and builds
// the global waits-for graph. Detection runs only when a transaction is
// forced to wait — the contended path, where its cost is already dwarfed
// by the wait itself.
//
// The table has two indexes. Per item, an entry lists the holders (one
// writer, or the readers of the item: a short slice scanned linearly, backed
// by an array inside the entry) and the FIFO queue of waiters; an emptied
// entry goes to its stripe's free list. Per transaction, one record lists the
// items it has acquired or queued on, written before any grant or queue so
// that Release — which visits exactly those items — can never miss one, even
// racing a timed-out acquisition. An uncontended acquire and release
// allocates nothing.
package lockmgr

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"minraid/internal/core"
)

// Mode is a lock mode.
type Mode uint8

const (
	// Shared permits concurrent readers.
	Shared Mode = iota
	// Exclusive permits one writer.
	Exclusive
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// Errors returned by Acquire.
var (
	// ErrDeadlock is returned to the transaction chosen as deadlock
	// victim. The victim should release its locks and retry.
	ErrDeadlock = errors.New("lockmgr: deadlock victim")
	// ErrTimeout is returned when the lock was not granted in time.
	ErrTimeout = errors.New("lockmgr: acquisition timed out")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("lockmgr: closed")
)

// defaultStripes is the lock-table shard count. Power of two so stripe
// selection is a mask; 16 comfortably exceeds plausible ConcurrentTxns
// degrees while keeping the all-stripes deadlock sweep cheap.
const defaultStripes = 16

// maxStripes caps the shard count so the stripes of one lock set fit in one
// uint64 (TryAcquireAll locks them together, in index order).
const maxStripes = 64

// txnShards shards the per-transaction records by transaction ID, so
// recording a lock set doesn't reintroduce a global mutex.
const txnShards = 16

// Inline capacities: a lock set, a transaction's record and an item's holders
// of at most these sizes live in arrays inside their owner (the stack, the
// record, the entry); larger ones spill to the heap.
const (
	inlineWants   = 16
	inlineItems   = 8
	inlineHolders = 4
)

// maxFree bounds each free list (entries per stripe, records per txn shard);
// beyond it, emptied values are left to the garbage collector.
const maxFree = 64

// request is one waiting acquisition.
type request struct {
	txn   core.TxnID
	item  core.ItemID // the item whose queue holds this request
	mode  Mode
	ready chan error // buffered(1); nil error = granted
}

// holder is one granted lock on an item.
type holder struct {
	txn  core.TxnID
	mode Mode
}

// lockState is the per-item lock table entry. It exists only while the item
// has a holder or a waiter.
type lockState struct {
	holders []holder // unordered; starts on inline
	queue   []*request
	inline  [inlineHolders]holder
}

// want is one element of a lock set: an item and the mode to take it in.
type want struct {
	item core.ItemID
	mode Mode
}

// stripe is one shard of the lock table. Its mutex guards every field;
// cross-stripe operations lock stripes in index order.
type stripe struct {
	mu    sync.Mutex
	items map[core.ItemID]*lockState
	free  []*lockState            // emptied entries, at most maxFree
	waits map[core.TxnID]*request // at most one wait per txn globally
}

// txnRecord lists the items one live transaction has acquired or queued on.
type txnRecord struct {
	items  []core.ItemID // distinct; starts on inline
	inline [inlineItems]core.ItemID
}

// txnShard is one shard of the per-transaction index.
type txnShard struct {
	mu   sync.Mutex
	recs map[core.TxnID]*txnRecord
	free []*txnRecord // at most maxFree
}

// Manager is a strict-2PL lock manager. All methods are safe for
// concurrent use. Locks are held until Release(txn) — strictness — so
// cascading aborts cannot occur.
type Manager struct {
	stripes []*stripe
	txns    [txnShards]txnShard
	timeout time.Duration
	closed  atomic.Bool
}

// New returns a manager with the given acquisition timeout (0 means wait
// forever, relying on deadlock detection alone) and the default stripe
// count.
func New(timeout time.Duration) *Manager {
	return NewSharded(timeout, defaultStripes)
}

// NewSharded returns a manager with an explicit stripe count, rounded up
// to a power of two, at least 1 and at most 64. A single stripe reproduces
// the original fully-serialized table (useful for comparison benchmarks).
func NewSharded(timeout time.Duration, stripes int) *Manager {
	n := 1
	for n < stripes && n < maxStripes {
		n <<= 1
	}
	m := &Manager{stripes: make([]*stripe, n), timeout: timeout}
	for i := range m.stripes {
		m.stripes[i] = &stripe{
			items: make(map[core.ItemID]*lockState),
			waits: make(map[core.TxnID]*request),
		}
	}
	for i := range m.txns {
		m.txns[i].recs = make(map[core.TxnID]*txnRecord)
	}
	return m
}

// stripeIdx hashes an item to its stripe index. The multiplier is the
// splitmix64 increment (odd, well-distributed), so adjacent item IDs land
// on different stripes.
func (m *Manager) stripeIdx(item core.ItemID) int {
	h := uint64(item) * 0x9E3779B97F4A7C15
	return int((h >> 32) & uint64(len(m.stripes)-1))
}

// stripeFor returns the stripe holding item's lock state.
func (m *Manager) stripeFor(item core.ItemID) *stripe {
	return m.stripes[m.stripeIdx(item)]
}

// record adds the items of wants to txn's record, creating it if needed.
// Callers record before they grant or queue, so Release always finds every
// item the transaction may hold or wait on.
func (m *Manager) record(txn core.TxnID, wants []want) {
	sh := &m.txns[uint64(txn)%txnShards]
	sh.mu.Lock()
	rec := sh.recs[txn]
	if rec == nil {
		if n := len(sh.free); n > 0 {
			rec, sh.free = sh.free[n-1], sh.free[:n-1]
		} else {
			rec = new(txnRecord)
			rec.items = rec.inline[:0]
		}
		sh.recs[txn] = rec
	}
	for _, w := range wants {
		if !slices.Contains(rec.items, w.item) {
			rec.items = append(rec.items, w.item)
		}
	}
	sh.mu.Unlock()
}

// takeRecord removes txn's record and returns its items appended to dst.
func (m *Manager) takeRecord(txn core.TxnID, dst []core.ItemID) []core.ItemID {
	sh := &m.txns[uint64(txn)%txnShards]
	sh.mu.Lock()
	if rec := sh.recs[txn]; rec != nil {
		delete(sh.recs, txn)
		dst = append(dst, rec.items...)
		if len(sh.free) < maxFree {
			rec.items = rec.items[:0]
			sh.free = append(sh.free, rec)
		}
	}
	sh.mu.Unlock()
	return dst
}

// allStripes selects every stripe in lockStripes.
const allStripes = ^uint64(0)

// lockStripes locks the stripes whose bit is set in mask, in index order
// (the canonical order that makes cross-stripe operations mutually
// deadlock-free).
func (m *Manager) lockStripes(mask uint64) {
	for i, s := range m.stripes {
		if mask&(1<<i) != 0 {
			s.mu.Lock()
		}
	}
}

// unlockStripes releases the stripes lockStripes(mask) locked.
func (m *Manager) unlockStripes(mask uint64) {
	for i, s := range m.stripes {
		if mask&(1<<i) != 0 {
			s.mu.Unlock()
		}
	}
}

// lockSet appends to dst the distinct items of shared and exclusive in
// ascending item order; an item in both is wanted once, exclusively.
func lockSet(dst []want, shared, exclusive []core.ItemID) []want {
	for _, it := range exclusive {
		dst = insertWant(dst, want{it, Exclusive})
	}
	for _, it := range shared {
		dst = insertWant(dst, want{it, Shared})
	}
	return dst
}

// insertWant keeps ws sorted by item; a repeated item keeps the stronger mode.
func insertWant(ws []want, w want) []want {
	i := len(ws)
	for i > 0 && ws[i-1].item > w.item {
		i--
	}
	if i > 0 && ws[i-1].item == w.item {
		if w.mode == Exclusive {
			ws[i-1].mode = Exclusive
		}
		return ws
	}
	ws = append(ws, w)
	copy(ws[i+1:], ws[i:])
	ws[i] = w
	return ws
}

// Acquire obtains item in mode for txn, blocking until granted, deadlock,
// timeout or Close. Re-acquiring a held lock is a no-op; acquiring
// Exclusive over a held Shared upgrades (waiting for other readers to
// drain).
func (m *Manager) Acquire(txn core.TxnID, item core.ItemID, mode Mode) error {
	w := [1]want{{item, mode}}
	m.record(txn, w[:])
	return m.acquire(txn, item, mode)
}

// acquire is Acquire for an item already in txn's record.
func (m *Manager) acquire(txn core.TxnID, item core.ItemID, mode Mode) error {
	st := m.stripeFor(item)
	st.mu.Lock()
	if m.closed.Load() {
		st.mu.Unlock()
		return ErrClosed
	}
	ls := st.lockState(item)

	// A lock already held strongly enough is grantable with nothing to
	// change; an upgrade that is not goes to the queue with upgrade
	// semantics.
	if ls.grantable(txn, mode) {
		ls.grant(txn, mode)
		st.mu.Unlock()
		return nil
	}

	// Queue and wait.
	req := &request{txn: txn, item: item, mode: mode, ready: make(chan error, 1)}
	ls.queue = append(ls.queue, req)
	st.waits[txn] = req
	st.mu.Unlock()

	// A new waiter may close a cycle; detection needs the global graph,
	// so it runs outside the single-stripe critical section.
	m.detectDeadlock()

	var timeoutCh <-chan time.Time
	if m.timeout > 0 {
		t := time.NewTimer(m.timeout)
		defer t.Stop()
		timeoutCh = t.C
	}
	select {
	case err := <-req.ready:
		return err
	case <-timeoutCh:
		st.mu.Lock()
		// Re-check: the grant may have raced the timer.
		select {
		case err := <-req.ready:
			st.mu.Unlock()
			return err
		default:
		}
		st.dropWaiter(req)
		st.mu.Unlock()
		return fmt.Errorf("%w: txn %d on item %d (%s)", ErrTimeout, txn, item, mode)
	}
}

// AcquireAll takes locks for a whole read/write set in ascending item
// order (a canonical order removes one class of deadlocks). On any error,
// locks already held by txn are NOT released; call Release.
func (m *Manager) AcquireAll(txn core.TxnID, shared, exclusive []core.ItemID) error {
	var buf [inlineWants]want
	wants := lockSet(buf[:0], shared, exclusive)
	m.record(txn, wants)
	for _, w := range wants {
		if err := m.acquire(txn, w.item, w.mode); err != nil {
			return err
		}
	}
	return nil
}

// TryAcquireAll takes the whole set if every lock in it can be granted at
// once, and reports whether it did. It never waits and never overtakes a
// queued waiter; when it fails it leaves nothing behind — no lock, no table
// entry, no record — so the caller owes no Release. Locks txn already holds
// are kept (and upgraded where the set asks, if txn is the sole holder).
func (m *Manager) TryAcquireAll(txn core.TxnID, shared, exclusive []core.ItemID) bool {
	var buf [inlineWants]want
	wants := lockSet(buf[:0], shared, exclusive)
	var stripes uint64 // the set's stripes, held together for the check and the grants
	for _, w := range wants {
		stripes |= 1 << m.stripeIdx(w.item)
	}
	m.lockStripes(stripes)
	defer m.unlockStripes(stripes)
	if m.closed.Load() {
		return false
	}
	for _, w := range wants {
		if ls := m.stripeFor(w.item).items[w.item]; ls != nil && !ls.grantable(txn, w.mode) {
			return false
		}
	}
	m.record(txn, wants)
	for _, w := range wants {
		m.stripeFor(w.item).lockState(w.item).grant(txn, w.mode)
	}
	return true
}

// Release drops every lock txn holds and cancels any wait, waking queued
// transactions that become grantable. Strict 2PL: call exactly once, at
// commit or abort.
func (m *Manager) Release(txn core.TxnID) {
	var buf [inlineItems]core.ItemID
	for _, item := range m.takeRecord(txn, buf[:0]) {
		st := m.stripeFor(item)
		st.mu.Lock()
		if req, ok := st.waits[txn]; ok {
			st.dropWaiter(req)
		}
		if ls := st.items[item]; ls != nil && ls.drop(txn) {
			st.promote(ls)
			if len(ls.holders) == 0 && len(ls.queue) == 0 {
				delete(st.items, item)
				if len(st.free) < maxFree {
					st.free = append(st.free, ls)
				}
			}
		}
		st.mu.Unlock()
	}
}

// Holds reports the mode txn holds on item, if any.
func (m *Manager) Holds(txn core.TxnID, item core.ItemID) (Mode, bool) {
	st := m.stripeFor(item)
	st.mu.Lock()
	defer st.mu.Unlock()
	if ls := st.items[item]; ls != nil {
		if i := ls.holderIdx(txn); i >= 0 {
			return ls.holders[i].mode, true
		}
	}
	return 0, false
}

// Stats returns the number of locked items and waiting transactions.
func (m *Manager) Stats() (lockedItems, waiters int) {
	m.lockStripes(allStripes)
	defer m.unlockStripes(allStripes)
	for _, st := range m.stripes {
		lockedItems += len(st.items)
		waiters += len(st.waits)
	}
	return lockedItems, waiters
}

// Close fails every waiter with ErrClosed and rejects future acquisitions.
func (m *Manager) Close() {
	if m.closed.Swap(true) {
		return
	}
	m.lockStripes(allStripes)
	defer m.unlockStripes(allStripes)
	for _, st := range m.stripes {
		for _, req := range st.waits {
			req.ready <- ErrClosed
		}
		st.waits = make(map[core.TxnID]*request)
		for _, ls := range st.items {
			ls.queue = nil
		}
	}
}

// lockState returns (creating if needed) the entry for item; callers hold
// the stripe mutex.
func (st *stripe) lockState(item core.ItemID) *lockState {
	ls, ok := st.items[item]
	if !ok {
		if n := len(st.free); n > 0 {
			ls, st.free = st.free[n-1], st.free[:n-1]
		} else {
			ls = new(lockState)
			ls.holders = ls.inline[:0]
		}
		st.items[item] = ls
	}
	return ls
}

// holderIdx returns txn's position in holders, or -1.
func (ls *lockState) holderIdx(txn core.TxnID) int {
	for i := range ls.holders {
		if ls.holders[i].txn == txn {
			return i
		}
	}
	return -1
}

// drop removes txn from holders and reports whether it was there.
func (ls *lockState) drop(txn core.TxnID) bool {
	i := ls.holderIdx(txn)
	if i < 0 {
		return false
	}
	last := len(ls.holders) - 1
	ls.holders[i] = ls.holders[last]
	ls.holders = ls.holders[:last]
	return true
}

// compatible reports whether txn holding the item in mode conflicts with
// no holder other than txn itself.
func (ls *lockState) compatible(txn core.TxnID, mode Mode) bool {
	for _, h := range ls.holders {
		if h.txn != txn && (mode == Exclusive || h.mode == Exclusive) {
			return false
		}
	}
	return true
}

// grantable reports whether txn could hold the item in mode right now.
// Fairness: a request from a transaction that holds nothing here must not
// overtake a queued upgrade or exclusive request (starvation); a holder —
// re-acquiring, or the sole holder upgrading — blocks on other holders
// only, not on the queue. Callers hold the stripe mutex.
func (ls *lockState) grantable(txn core.TxnID, mode Mode) bool {
	if len(ls.queue) > 0 && ls.holderIdx(txn) < 0 {
		return false
	}
	return ls.compatible(txn, mode)
}

// grant records txn holding the item in mode, never downgrading. Callers
// hold the stripe mutex.
func (ls *lockState) grant(txn core.TxnID, mode Mode) {
	if i := ls.holderIdx(txn); i < 0 {
		ls.holders = append(ls.holders, holder{txn, mode})
	} else if mode == Exclusive {
		ls.holders[i].mode = Exclusive
	}
}

// promote grants queued requests that have become compatible, in FIFO
// order, stopping at the first that still conflicts (head-of-line
// blocking preserves fairness). Upgrades are considered regardless of
// position, since they block on other holders, not on the queue. Callers
// hold the stripe mutex.
func (st *stripe) promote(ls *lockState) {
	for {
		advanced := false
		// First: any waiting upgrade whose only blockers are gone.
		for i, req := range ls.queue {
			if ls.holderIdx(req.txn) >= 0 && ls.compatible(req.txn, req.mode) {
				ls.grant(req.txn, req.mode)
				ls.queue = append(ls.queue[:i:i], ls.queue[i+1:]...)
				delete(st.waits, req.txn)
				req.ready <- nil
				advanced = true
				break
			}
		}
		if advanced {
			continue
		}
		// Then: FIFO head.
		if len(ls.queue) == 0 {
			return
		}
		head := ls.queue[0]
		if !ls.compatible(head.txn, head.mode) {
			return
		}
		ls.grant(head.txn, head.mode)
		ls.queue = ls.queue[1:]
		delete(st.waits, head.txn)
		head.ready <- nil
	}
}

// detectDeadlock locks all stripes, builds the global waits-for graph,
// and aborts the victim of any cycle found. Runs after a transaction
// queues (the only event that can close a cycle).
func (m *Manager) detectDeadlock() {
	m.lockStripes(allStripes)
	defer m.unlockStripes(allStripes)
	victim := m.findDeadlockVictimLocked()
	if victim == core.NoTxn {
		return
	}
	for _, st := range m.stripes {
		if req, ok := st.waits[victim]; ok {
			st.dropWaiter(req)
			req.ready <- fmt.Errorf("%w: txn %d", ErrDeadlock, victim)
			return
		}
	}
}

// findDeadlockVictimLocked builds the waits-for graph across all stripes
// and returns a transaction on a cycle (the youngest, i.e. highest
// TxnID), or NoTxn. Callers hold every stripe mutex.
func (m *Manager) findDeadlockVictimLocked() core.TxnID {
	// waits-for: waiting txn -> each conflicting holder.
	var edges map[core.TxnID][]core.TxnID
	waiting := make(map[core.TxnID]bool)
	for _, st := range m.stripes {
		for txn := range st.waits {
			waiting[txn] = true
		}
		for _, ls := range st.items {
			for _, req := range ls.queue {
				for _, h := range ls.holders {
					if h.txn == req.txn {
						continue
					}
					if req.mode == Exclusive || h.mode == Exclusive {
						if edges == nil {
							edges = make(map[core.TxnID][]core.TxnID)
						}
						edges[req.txn] = append(edges[req.txn], h.txn)
					}
				}
			}
		}
	}
	// DFS cycle detection.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[core.TxnID]int)
	var cycle []core.TxnID
	var dfs func(t core.TxnID, stack []core.TxnID) bool
	dfs = func(t core.TxnID, stack []core.TxnID) bool {
		color[t] = grey
		stack = append(stack, t)
		for _, next := range edges[t] {
			switch color[next] {
			case grey:
				// Found a cycle: slice the stack from next.
				for i, s := range stack {
					if s == next {
						cycle = append([]core.TxnID(nil), stack[i:]...)
						return true
					}
				}
			case white:
				if dfs(next, stack) {
					return true
				}
			}
		}
		color[t] = black
		return false
	}
	for t := range edges {
		if color[t] == white && dfs(t, nil) {
			break
		}
	}
	if len(cycle) == 0 {
		return core.NoTxn
	}
	victim := cycle[0]
	for _, t := range cycle[1:] {
		if t > victim {
			victim = t // youngest transaction dies
		}
	}
	// Only a waiter can be woken with an error; if the chosen victim is
	// not waiting, pick the youngest waiting member of the cycle.
	if !waiting[victim] {
		victim = core.NoTxn
		for _, t := range cycle {
			if waiting[t] && t > victim {
				victim = t
			}
		}
	}
	return victim
}

// dropWaiter removes a request from its item's queue and the wait index.
// Callers hold the stripe mutex of the request's item.
func (st *stripe) dropWaiter(req *request) {
	delete(st.waits, req.txn)
	ls, ok := st.items[req.item]
	if !ok {
		return
	}
	for i, q := range ls.queue {
		if q == req {
			ls.queue = append(ls.queue[:i:i], ls.queue[i+1:]...)
			// Removing a waiter can unblock the queue behind it.
			st.promote(ls)
			return
		}
	}
}
