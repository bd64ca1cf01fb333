package site

import (
	"sync"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
	"minraid/internal/transport"
	"minraid/internal/txn"
)

// Epoch-batched commit (Config.CommitEpoch > 0): the coordinator
// accumulates transactions that have passed their commit decision and
// flushes the whole phase-two fan-out once per epoch boundary — one
// CommitBatch message per participant instead of one Commit per
// transaction per participant, one local WAL group-commit window for the
// batch, and one shared ack collection that runs off the critical path.
//
// The trade against stock ROWAA (per the SCAR/epoch-OCC designs this
// mode reproduces): results are released late — a client learns its
// outcome at the flush, not at the decision — but the per-transaction
// cost of phase two collapses. On WAN links, where the commit fan-out's
// serialization and round-trip cost dominates, batching it per epoch is
// what buys committed throughput.
//
// Safety mirrors Appendix A.1 exactly:
//
//   - The commit decision re-validates at flush: a site that recovered
//     into a newer session while the transaction sat in the batch would
//     miss the write untracked, so such entries abort (AbortStaleSession)
//     with Aborts to their acked participants — legal, because no
//     participant has committed and no client has been answered.
//   - Results are released only after the CommitBatch is on the wire and
//     the local copies are applied: once a client sees "committed", the
//     participants either hold the batch in flight or have it.
//   - Commit acks are collected asynchronously. A participant that never
//     acks is announced down and the batch's items are conservatively
//     fail-locked for it everywhere (markLostParticipants), the same
//     repair path a lost per-transaction Commit takes.
//
// A participant's staged transaction waits on its decision timer
// (4 x AckTimeout) for the batched commit, so CommitEpoch must stay
// under AckTimeout: the flush adds at most one epoch to the phase gap,
// which the timer's headroom absorbs.

// epochOutcome is what a batched transaction's waiter receives at flush.
type epochOutcome struct {
	committed bool
	reason    string
}

// epochTxn is one decided-but-unflushed transaction in the batch.
type epochTxn struct {
	id          core.TxnID
	writes      []core.ItemVersion // full write set (final versions in concurrent mode)
	localWrites []core.ItemVersion // the subset this site hosts
	localMaint  []core.ItemID      // written items this site does not host
	versions    []core.ItemVersion // commit-version overlay shipped to participants
	acked       []core.SiteID      // participants that acked phase one
	vec         core.SessionVector // the vector the prepares carried
	tr          uint64
	done        chan epochOutcome // buffered(1); exactly one outcome is sent
}

// epochBatcher owns the pending batch and its flush timing. It has its
// own locks — never s.mu — so enqueue and flush ordering cannot entangle
// with the site's state lock.
type epochBatcher struct {
	s *Site

	mu      sync.Mutex
	pending []*epochTxn
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

// enqueue adds a decided transaction to the batch. The batch flushes
// when every transaction-gate slot is in it (no further decision can
// arrive until results release, so waiting longer is pure latency) or
// when the epoch timer — armed by the first entry — fires.
func (b *epochBatcher) enqueue(e *epochTxn) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		e.done <- epochOutcome{reason: txn.AbortSiteDown}
		return
	}
	b.pending = append(b.pending, e)
	if len(b.pending) >= cap(b.s.txnGate) {
		batch := b.takeLocked()
		b.mu.Unlock()
		b.flush(batch)
		return
	}
	if len(b.pending) == 1 {
		b.timer = time.AfterFunc(b.s.cfg.CommitEpoch, b.timerFlush)
	}
	b.mu.Unlock()
}

// takeLocked detaches the pending batch and disarms the timer; callers
// hold b.mu.
func (b *epochBatcher) takeLocked() []*epochTxn {
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
	for _, e := range batch {
		e.done <- epochOutcome{reason: txn.AbortSiteDown}
	}
}

// shutdown drains the batch, refuses further enqueues, joins any
// in-flight flush and waits for the ack collectors. Called from Stop
// after CancelAll, so collectors unblock promptly.
func (b *epochBatcher) shutdown() {
	b.mu.Lock()
	b.closed = true
	batch := b.takeLocked()
	b.mu.Unlock()
	for _, e := range batch {
		e.done <- epochOutcome{reason: txn.AbortSiteDown}
	}
	b.flushMu.Lock()
	b.flushMu.Unlock() //nolint:staticcheck // join in-flight flush, nothing to hold
	b.wg.Wait()
}

// flush retires one batch: re-validate each entry's commit decision,
// abort the stale ones, send one CommitBatch per participant, apply the
// committed writes locally in one lock hold (one WAL group-commit
// window), release the waiters, and collect commit acks asynchronously.
func (b *epochBatcher) flush(batch []*epochTxn) {
	if len(batch) == 0 {
		return
	}
	b.flushMu.Lock()
	defer b.flushMu.Unlock()
	s := b.s

	// Re-validate the decision point per entry: any session that advanced
	// past the entry's vector means a site recovered while the entry sat
	// in the batch — its copy would miss the write untracked. Abort those.
	s.mu.Lock()
	if s.state.get() != core.StatusUp {
		s.mu.Unlock()
		for _, e := range batch {
			e.done <- epochOutcome{reason: txn.AbortSiteDown}
		}
		return
	}
	var commits, stale []*epochTxn
	for _, e := range batch {
		ok := true
		for k := 0; k < s.vec.Len(); k++ {
			if s.vec.Session(core.SiteID(k)) > e.vec.Session(core.SiteID(k)) {
				ok = false
				break
			}
		}
		if ok {
			commits = append(commits, e)
		} else {
			stale = append(stale, e)
		}
	}
	s.mu.Unlock()

	for _, e := range stale {
		s.sendAbort(e.acked, e.id, e.tr)
		e.done <- epochOutcome{reason: txn.AbortStaleSession}
	}
	if len(commits) == 0 {
		return
	}

	// One CommitBatch per participant, carrying the entries it prepared,
	// in batch order. The sends happen here, before any waiter wakes: a
	// client told "committed" implies the batch is at least in flight to
	// every acked participant.
	perSite := make(map[core.SiteID][]msg.CommitEntry)
	var order []core.SiteID
	for _, e := range commits {
		for _, id := range e.acked {
			if _, ok := perSite[id]; !ok {
				order = append(order, id)
			}
			perSite[id] = append(perSite[id], msg.CommitEntry{Txn: e.id, Versions: e.versions})
		}
	}
	var join func() []transport.CallResult
	if len(order) > 0 {
		calls := make([]transport.Outcall, len(order))
		for i, id := range order {
			calls[i] = transport.Outcall{To: id, Body: &msg.CommitBatch{Txns: perSite[id]}}
		}
		join = s.caller.MulticastAsyncT(commits[0].tr, calls)
	}

	// Local phase two for the whole batch under one lock hold: the store
	// applies run back to back, so a WAL store coalesces their fsyncs
	// into one group commit. Failing here mirrors the stock "failed
	// between phases" arm — the participants commit, our copy is repaired
	// by fail-locks on recovery, waiters report AbortSiteDown silently.
	s.mu.Lock()
	committedLocally := s.state.get() == core.StatusUp
	if committedLocally {
		for _, e := range commits {
			for _, iv := range e.localWrites {
				if _, err := s.store.Apply(iv); err != nil {
					panic("site: applying local write: " + err.Error())
				}
			}
			s.maintainFailLocksLocked(e.localWrites, e.localMaint, e.vec)
		}
	}
	s.mu.Unlock()

	for _, e := range commits {
		if committedLocally {
			e.done <- epochOutcome{committed: true}
		} else {
			e.done <- epochOutcome{reason: txn.AbortSiteDown}
		}
	}

	if join == nil {
		return
	}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.collect(order, commits, join)
	}()
}

// collect drains one batch's commit acks. Participants whose ack never
// arrives are announced down and every batched item they host is
// conservatively fail-locked for them, exactly as a lost per-transaction
// Commit would be (Appendix A.1).
func (b *epochBatcher) collect(order []core.SiteID, commits []*epochTxn, join func() []transport.CallResult) {
	s := b.s
	lost := make(map[core.SiteID]bool)
	for i, r := range join() {
		if r.Err == nil {
			continue
		}
		if r.Err == transport.ErrCancelled {
			return // local failure mid-collection: stop silently
		}
		lost[order[i]] = true
	}
	if len(lost) == 0 {
		return
	}
	announced := make(map[core.SiteID]bool)
	for _, e := range commits {
		var lostHere []core.SiteID
		for _, id := range e.acked {
			if lost[id] {
				lostHere = append(lostHere, id)
			}
		}
		if len(lostHere) == 0 {
			continue
		}
		var fresh []core.SiteID
		for _, id := range s.perceivedUp(e.vec, lostHere) {
			if !announced[id] {
				announced[id] = true
				fresh = append(fresh, id)
			}
		}
		if len(fresh) > 0 {
			s.announceFailure(fresh, e.tr)
		}
		s.markLostParticipants(lostHere, e.writes, e.tr)
	}
}

// epochCommit is the coordinator's phase two in epoch mode: enqueue the
// decided transaction and block until the epoch flush releases it.
func (s *Site) epochCommit(res txn.Result, writes, localWrites, commitVersions []core.ItemVersion,
	acked []core.SiteID, vec core.SessionVector, rep *core.ReplicaMap, tr uint64) txn.Result {
	var localMaint []core.ItemID
	for _, iv := range writes {
		if !rep.IsHost(iv.Item, s.cfg.ID) {
			localMaint = append(localMaint, iv.Item)
		}
	}
	e := &epochTxn{
		id:          res.Txn,
		writes:      writes,
		localWrites: localWrites,
		localMaint:  localMaint,
		versions:    commitVersions,
		acked:       acked,
		vec:         vec,
		tr:          tr,
		done:        make(chan epochOutcome, 1),
	}
	s.epoch.enqueue(e)
	out := <-e.done
	if out.committed {
		res.Committed = true
	} else {
		res.AbortReason = out.reason
	}
	return res
}

// handleCommitBatch is the participant side of an epoch flush: commit
// every listed staged transaction (exactly as handleCommit would, in
// batch order, under one lock hold so a WAL store group-commits them)
// and acknowledge the batch once. Entries with no staged state are
// counted and skipped — the same idempotent silence a stray Commit gets.
func (s *Site) handleCommitBatch(env *msg.Envelope, body *msg.CommitBatch) {
	type finished struct {
		st *stagedTxn
		id core.TxnID
	}
	var done []finished
	applied := 0
	s.mu.Lock()
	for _, entry := range body.Txns {
		st, ok := s.staged[entry.Txn]
		if !ok {
			applied++
			continue
		}
		delete(s.staged, entry.Txn)
		overlayVersions(st.writes, entry.Versions)
		for _, iv := range st.writes {
			if _, err := s.store.Apply(iv); err != nil {
				panic("site: applying staged write: " + err.Error())
			}
		}
		s.maintainFailLocksLocked(st.writes, st.maintOnly, core.VectorFromRecords(st.vector))
		s.stats.Participated++
		applied++
		done = append(done, finished{st: st, id: entry.Txn})
	}
	armed := s.batchArmed
	s.mu.Unlock()
	now := time.Now()
	for _, f := range done {
		f.st.finish(f.id)
		s.reg.Observe(TimerPartTxn, now.Sub(f.st.start))
	}
	s.caller.Reply(env, &msg.CommitBatchAck{Applied: uint32(applied)})
	if armed && len(done) > 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.checkBatchTrigger()
		}()
	}
}
