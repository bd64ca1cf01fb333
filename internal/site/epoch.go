package site

import (
	"sync"
	"time"

	"minraid/internal/txn"
)

// Epoch-batched commit (Config.CommitEpoch > 0): the coordinator
// accumulates transactions that have passed their commit decision and
// retires them with one phaseTwo call per epoch boundary — one
// CommitBatch message per participant instead of one Commit per
// transaction per participant, one local WAL group-commit window for the
// batch, and one shared ack collection that runs off the critical path.
// Phase two itself is the per-transaction one (coordinator.go): a zero
// epoch is an epoch of one transaction, retired inline.
//
// The trade against stock ROWAA (per the SCAR/epoch-OCC designs this
// mode reproduces): results are released late — a client learns its
// outcome at the flush, not at the decision — but the per-transaction
// cost of phase two collapses. On WAN links, where the commit fan-out's
// serialization and round-trip cost dominates, batching it per epoch is
// what buys committed throughput. Beyond the batch size, the epoch
// changes only who waits for the commit acks: the flush releases its waiters once the
// commits are on the wire and the local copies applied, and the ack
// collector — type 2 and fail-locks for a participant that never acks —
// runs in the background.
//
// A participant's staged transaction waits on its decision timer
// (4 x AckTimeout) for the batched commit, so CommitEpoch must stay
// under AckTimeout: the flush adds at most one epoch to the phase gap,
// which the timer's headroom absorbs.

// epochBatcher owns the pending batch and its flush timing. It has its
// own locks — never s.mu — so enqueue and flush ordering cannot entangle
// with the site's state lock.
type epochBatcher struct {
	s *Site

	mu      sync.Mutex
	pending []*decided
	timer   *time.Timer
	closed  bool

	// flushMu serializes flushes so epochs retire in order; shutdown
	// takes it to join an in-flight flush.
	flushMu sync.Mutex
	wg      sync.WaitGroup // ack collectors
}

func newEpochBatcher(s *Site) *epochBatcher {
	if s.cfg.CommitEpoch <= 0 {
		return nil
	}
	return &epochBatcher{s: s}
}

// commit adds a decided transaction to the batch and waits for its
// verdict. The batch flushes when every transaction-gate slot is in it
// (no further decision can arrive until results release, so waiting
// longer is pure latency) or when the epoch timer — armed by the first
// entry — fires.
func (b *epochBatcher) commit(d *decided) {
	d.done = make(chan struct{})
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		d.reason = txn.AbortSiteDown
		return
	}
	b.pending = append(b.pending, d)
	if len(b.pending) >= cap(b.s.txnGate) {
		batch := b.takeLocked()
		b.mu.Unlock()
		b.flush(batch)
	} else {
		if len(b.pending) == 1 {
			b.timer = time.AfterFunc(b.s.cfg.CommitEpoch, b.timerFlush)
		}
		b.mu.Unlock()
	}
	<-d.done
}

// takeLocked detaches the pending batch and disarms the timer; callers
// hold b.mu.
func (b *epochBatcher) takeLocked() []*decided {
	batch := b.pending
	b.pending = nil
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return batch
}

// timerFlush is the epoch-boundary flush.
func (b *epochBatcher) timerFlush() {
	b.mu.Lock()
	batch := b.takeLocked()
	b.mu.Unlock()
	b.flush(batch)
}

// drain aborts every pending entry without sending anything — the
// simulated-failure path: the process's volatile 2PC state dies, the
// participants' decision timers discard their staged writes.
func (b *epochBatcher) drain() {
	b.mu.Lock()
	batch := b.takeLocked()
	b.mu.Unlock()
	release(batch, txn.AbortSiteDown)
}

// shutdown drains the batch, refuses further enqueues, joins any
// in-flight flush and waits for the ack collectors. Called from Stop
// after CancelAll, so collectors unblock promptly.
func (b *epochBatcher) shutdown() {
	b.mu.Lock()
	b.closed = true
	batch := b.takeLocked()
	b.mu.Unlock()
	release(batch, txn.AbortSiteDown)
	b.flushMu.Lock()
	b.flushMu.Unlock() //nolint:staticcheck // join in-flight flush, nothing to hold
	b.wg.Wait()
}

// flush retires one batch through phaseTwo, releases its waiters, and
// collects the commit acks in the background.
func (b *epochBatcher) flush(batch []*decided) {
	if len(batch) == 0 {
		return
	}
	b.flushMu.Lock()
	defer b.flushMu.Unlock()
	collect := b.s.phaseTwo(batch)
	release(batch, "")
	if collect != nil {
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			collect()
		}()
	}
}

// release wakes the batch's waiters, first setting every verdict to
// reason when it is non-empty.
func release(batch []*decided, reason string) {
	for _, d := range batch {
		if reason != "" {
			d.reason = reason
		}
		close(d.done)
	}
}
