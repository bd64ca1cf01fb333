package site

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"minraid/internal/core"
	"minraid/internal/lockmgr"
	"minraid/internal/msg"
	"minraid/internal/trace"
	"minraid/internal/txn"
)

// handle dispatches one inbound request. Handlers that only touch local
// state run inline, preserving arrival order; work that must wait for
// other sites goes elsewhere so the receive loop stays responsive: client
// transactions to the coordinator workers' queue, recovery and type-3
// replication to goroutines of their own.
func (s *Site) handle(env *msg.Envelope) {
	switch body := env.Body.(type) {
	case *msg.ClientTxn:
		s.txns.push(env)
	case *msg.Prepare:
		s.handlePrepare(env, body)
	case *msg.Commit:
		s.handleCommit(env, body)
	case *msg.CommitBatch:
		s.handleCommitBatch(env, body)
	case *msg.Abort:
		s.handleAbort(body)
	case *msg.CopyRequest:
		s.handleCopyRequest(env, body)
	case *msg.ClearFailLocks:
		s.handleClearFailLocks(env, body)
	case *msg.CtrlRecover:
		s.handleCtrlRecover(env, body)
	case *msg.CtrlFail:
		s.handleCtrlFail(env, body)
	case *msg.CtrlReplicate:
		s.handleCtrlReplicate(env, body)
	case *msg.CtrlLockSync:
		s.handleCtrlLockSync(env, body)
	case *msg.CtrlRehost:
		s.handleCtrlRehost(env, body)
	case *msg.ReadReq:
		s.handleReadReq(env, body)
	case *msg.StatusReq:
		s.handleStatusReq(env, body)
	case *msg.DumpReq:
		s.handleDumpReq(env, body)
	case *msg.FailSim:
		s.failNow()
		s.caller.Reply(env, &msg.CtrlFailAck{})
	case *msg.RecoverSim:
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.recoverSite(env.Trace)
			s.mu.Lock()
			resp := s.statusRespLocked(false)
			s.mu.Unlock()
			s.caller.Reply(env, resp)
		}()
	case *msg.Shutdown:
		// Reply first; Stop closes the endpoint.
		s.caller.Reply(env, &msg.CtrlFailAck{})
		go s.Stop()
	default:
		// Unknown request kinds are dropped; replies were routed earlier.
	}
}

// handlePrepare is phase one at a participant: "receive copy update from
// coordinating site; send ack to coordinating site" (Appendix A.2). The
// writes are staged until commit or abort.
//
// Concurrent mode takes exclusive locks on this copy of the write set
// before staging — the participant half of distributed 2PL. The receive
// loop may try for them but never waits: locks that are free are taken and
// the prepare is staged inline, as in serial mode; a prepare that has to
// wait is handed to a goroutine.
func (s *Site) handlePrepare(env *msg.Envelope, body *msg.Prepare) {
	for _, iv := range body.Writes {
		if int(iv.Item) >= s.cfg.Items {
			s.caller.Reply(env, &msg.PrepareAck{Txn: body.Txn, OK: false, Reason: txn.AbortInvalid})
			return
		}
	}
	lm := s.lockManager() // nil in serial mode: nothing to take
	var buf [8]core.ItemID
	if lm == nil || lm.TryAcquireAll(body.Txn, nil, writeItems(buf[:0], body.Writes)) {
		s.stagePrepare(env, body, lm)
		return
	}
	s.wg.Add(1)
	go s.prepareAfterLocks(env, body, lm)
}

// prepareAfterLocks waits for the prepare's locks, then stages it. A
// timeout is a retriable NACK carrying the lock-timeout reason; a manager
// closed under the wait means this site failed, and a failed site does not
// vote.
func (s *Site) prepareAfterLocks(env *msg.Envelope, body *msg.Prepare, lm *lockmgr.Manager) {
	defer s.wg.Done()
	if err := lm.AcquireAll(body.Txn, nil, writeItems(nil, body.Writes)); err != nil {
		lm.Release(body.Txn)
		if !errors.Is(err, lockmgr.ErrClosed) {
			s.caller.Reply(env, &msg.PrepareAck{Txn: body.Txn, OK: false, Reason: txn.AbortLockTimeout})
		}
		return
	}
	s.stagePrepare(env, body, lm)
}

// writeItems appends the items of writes to dst.
func writeItems(dst []core.ItemID, writes []core.ItemVersion) []core.ItemID {
	for _, iv := range writes {
		dst = append(dst, iv.Item)
	}
	return dst
}

// stagePrepare stages a prepare whose locks (if any) are held in lm, and
// votes. mu is released before the vote is sent.
//
// The prepare carries the coordinator's nominal session vector; if its
// entry for this site names a different session, the coordinator formed
// its write set before this site's most recent failure/recovery transition
// and must abort (status change during execution).
func (s *Site) stagePrepare(env *msg.Envelope, body *msg.Prepare, lm *lockmgr.Manager) {
	ack := &msg.PrepareAck{Txn: body.Txn, OK: true}
	if lm != nil {
		// The prepare's X-locks hold these copies still; mu is not needed.
		ack.Versions = make([]uint64, len(body.Writes))
		for i, iv := range body.Writes {
			cur, err := s.store.Get(iv.Item)
			if err != nil {
				panic("site: reading version of locked item: " + err.Error())
			}
			ack.Versions[i] = uint64(cur.Version)
		}
	}
	s.mu.Lock()
	// Not operational (or failed while waiting for locks): a recovering
	// site must not vote. No reply; the coordinator's timeout handles it.
	up := s.state.get() == core.StatusUp && lm == s.locks.Load()
	// Reject a prepare whose vector predates a recovery this site knows
	// about: the coordinator chose its write set before learning that a
	// site rejoined, so that site would silently miss the write without a
	// fail-lock. This is the session numbers' stated purpose —
	// "determining if the status of a site has changed during the
	// execution of a transaction" (§1.1) — generalized to every entry.
	stale := int(s.cfg.ID) < len(body.Vector) && body.Vector[s.cfg.ID].Session != s.session
	for k := 0; !stale && k < s.vec.Len() && k < len(body.Vector); k++ {
		stale = body.Vector[k].Session < s.vec.Session(core.SiteID(k))
	}
	if !up || stale {
		s.mu.Unlock()
		if lm != nil {
			lm.Release(body.Txn)
		}
		if up {
			s.caller.Reply(env, &msg.PrepareAck{Txn: body.Txn, OK: false, Reason: txn.AbortStaleSession})
		}
		return
	}
	st := &stagedTxn{writes: body.Writes, maintOnly: body.MaintOnly, vector: body.Vector, start: time.Now(), coord: env.From, trace: env.Trace, lm: lm}
	s.staged[body.Txn] = st
	// Appendix A.2's third arm: "else /* coordinating site has failed */
	// run control type 2 transaction to announce failure". A participant
	// that hears neither commit nor abort within the decision timeout
	// concludes the coordinator died mid-protocol, discards the staged
	// copy updates, and announces the failure.
	st.timer = time.AfterFunc(decisionTimeout(s.caller.Timeout()), func() {
		s.coordinatorLost(body.Txn)
	})
	s.mu.Unlock()
	s.caller.Reply(env, ack)
	s.emit(env.Trace, trace.PhasePrepare, "writes="+strconv.Itoa(len(body.Writes)), st.start)
}

// decisionTimeout is how long a participant waits for the coordinator's
// phase-two decision before presuming it failed. Several ack timeouts: the
// coordinator itself waits one ack timeout per phase-one straggler before
// deciding.
func decisionTimeout(ackTimeout time.Duration) time.Duration { return 4 * ackTimeout }

// coordinatorLost handles a phase-two decision that never arrived.
func (s *Site) coordinatorLost(id core.TxnID) {
	s.mu.Lock()
	st, ok := s.staged[id]
	if !ok || s.state.get() != core.StatusUp {
		s.mu.Unlock()
		return
	}
	delete(s.staged, id)
	st.finish(id)
	coord := st.coord
	s.mu.Unlock()
	tr := st.trace
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.announceFailure([]core.SiteID{coord}, tr)
	}()
}

// handleCommit and handleCommitBatch are phase two at a participant for a
// share of one transaction and of an epoch's batch.
func (s *Site) handleCommit(env *msg.Envelope, body *msg.Commit) {
	s.commitStaged(env, []msg.CommitEntry{{Txn: body.Txn, Versions: body.Versions}}, &msg.CommitAck{Txn: body.Txn})
}

func (s *Site) handleCommitBatch(env *msg.Envelope, body *msg.CommitBatch) {
	s.commitStaged(env, body.Txns, &msg.CommitBatchAck{Applied: uint32(len(body.Txns))})
}

// commitStaged is phase two at a participant: "commit database data items;
// update fail-locks for data items" (Appendix A.2) for each listed staged
// transaction, in order, under one lock hold so a WAL store group-commits
// the applies. An entry with no staged state is skipped: a failure
// simulation or the decision timeout discarded it. The decision timeout
// (4x the ack timeout) comfortably exceeds the coordinator's worst-case
// phase gap, so a commit racing the timeout is not expected in practice;
// the caller still acks so the coordinator completes, and recovery
// fail-locks repair the failure-simulation case.
//
// ack goes to the coordinator after the commit events are recorded, so a
// span is whole once a per-transaction client hears its outcome, and
// before the 2PL locks release, which keeps the release off the
// coordinator's critical path. A prepare arriving on this receive loop
// still finds the locks free: the loop handles it only after this returns.
func (s *Site) commitStaged(env *msg.Envelope, entries []msg.CommitEntry, ack msg.Body) {
	type applied struct {
		st *stagedTxn
		id core.TxnID
	}
	var buf [8]applied
	done := buf[:0]
	s.mu.Lock()
	for _, e := range entries {
		st, ok := s.staged[e.Txn]
		if !ok {
			continue
		}
		delete(s.staged, e.Txn)
		overlayVersions(st.writes, e.Versions)
		for _, iv := range st.writes {
			if _, err := s.store.Apply(iv); err != nil {
				panic("site: applying staged write: " + err.Error())
			}
		}
		s.maintainFailLocksLocked(st.writes, st.maintOnly, core.VectorFromRecords(st.vector))
		s.stats.Participated++
		done = append(done, applied{st, e.Txn})
	}
	s.mu.Unlock()
	for _, a := range done {
		s.reg.Observe(TimerPartTxn, time.Since(a.st.start))
		s.emit(a.st.trace, trace.PhaseCommit, "writes="+strconv.Itoa(len(a.st.writes)), a.st.start)
	}
	s.caller.Reply(env, ack)
	for _, a := range done {
		a.st.finish(a.id)
	}
}

// overlayVersions stamps a commit's final version numbers onto the staged
// writes. Concurrent mode ships them with the commit (item and version
// only; the values travelled in the prepare); serial mode ships none and
// the staged versions stand. Our coordinator lists versions in the order of
// the prepare's writes, so the two zip by index; a list in any other shape
// is matched by item.
func overlayVersions(writes, versions []core.ItemVersion) {
	if len(versions) == 0 {
		return
	}
	aligned := len(versions) == len(writes)
	for i := 0; aligned && i < len(writes); i++ {
		aligned = versions[i].Item == writes[i].Item
	}
	if aligned {
		for i := range writes {
			writes[i].Version = versions[i].Version
		}
		return
	}
	for i := range writes {
		for _, v := range versions {
			if v.Item == writes[i].Item {
				writes[i].Version = v.Version
			}
		}
	}
}

// handleAbort discards staged copy updates (Appendix A.2).
func (s *Site) handleAbort(body *msg.Abort) {
	s.mu.Lock()
	if st, ok := s.staged[body.Txn]; ok {
		st.finish(body.Txn)
		delete(s.staged, body.Txn)
	}
	s.mu.Unlock()
}

// maintainFailLocksLocked performs commit-time fail-lock maintenance for
// the written items: set the bit of every non-operational site, re-clear
// the bit of every operational site (§1.2), restricted to each item's
// hosting sites, judged by the coordinating transaction's session vector
// (see stagedTxn.vector). maintOnly lists written items this site does
// not host (partial replication): their fail-locks are maintained too, so
// tables stay fully replicated. Callers hold mu.
func (s *Site) maintainFailLocksLocked(writes []core.ItemVersion, maintOnly []core.ItemID, vec core.SessionVector) {
	if s.cfg.DisableFailLockMaintenance || !s.pol.UsesFailLocks() {
		return
	}
	rep := s.replicaMap()
	maintain := func(item core.ItemID) {
		set, cleared := s.flocks.MaintainMasked(item, vec, rep.HostMask(item))
		s.stats.FailLocksSet += uint64(set)
		s.stats.FailLocksCleared += uint64(cleared)
	}
	for _, iv := range writes {
		maintain(iv.Item)
	}
	for _, item := range maintOnly {
		if int(item) < s.cfg.Items {
			maintain(item)
		}
	}
}

// handleCopyRequest serves a copier transaction as donor: return the
// requested copies, provided this site's own copies are up to date (no
// fail-lock set for this site).
func (s *Site) handleCopyRequest(env *msg.Envelope, body *msg.CopyRequest) {
	start := time.Now()
	rep := s.replicaMap()
	s.mu.Lock()
	if s.state.get() != core.StatusUp {
		s.mu.Unlock()
		return
	}
	items := make([]core.ItemVersion, 0, len(body.Items))
	for _, item := range body.Items {
		if int(item) >= s.cfg.Items || !rep.IsHost(item, s.cfg.ID) {
			s.mu.Unlock()
			s.caller.Reply(env, &msg.CopyResponse{Txn: body.Txn, OK: false, Reason: "donor hosts no copy"})
			return
		}
		if s.flocks.IsSet(item, s.cfg.ID) {
			s.mu.Unlock()
			s.caller.Reply(env, &msg.CopyResponse{Txn: body.Txn, OK: false, Reason: "donor copy fail-locked"})
			return
		}
		iv, err := s.store.Get(item)
		if err != nil {
			s.mu.Unlock()
			s.caller.Reply(env, &msg.CopyResponse{Txn: body.Txn, OK: false, Reason: err.Error()})
			return
		}
		items = append(items, iv)
	}
	s.stats.CopiesServed++
	s.mu.Unlock()
	s.caller.Reply(env, &msg.CopyResponse{Txn: body.Txn, OK: true, Items: items})
	s.reg.Observe(TimerCopyServe, time.Since(start))
	s.emit(env.Trace, trace.PhaseCopyServe, fmt.Sprintf("items=%d", len(items)), start)
}

// handleClearFailLocks applies the special transaction that propagates
// fail-lock clears after copier transactions (§1.2), or — with Set — the
// conservative fail-lock sets for a participant lost between commit
// phases.
func (s *Site) handleClearFailLocks(env *msg.Envelope, body *msg.ClearFailLocks) {
	start := time.Now()
	rep := s.replicaMap()
	s.mu.Lock()
	for _, item := range body.Items {
		if int(item) >= s.cfg.Items || int(body.Site) >= s.cfg.Sites {
			continue
		}
		switch {
		// A fail-lock marks a stale copy; a site hosting no copy of the
		// item has nothing to be stale, so a Set for it is dropped rather
		// than planting a stray bit the audit would flag.
		case body.Set && !rep.IsHost(item, body.Site):
			continue
		case body.Set && !s.flocks.IsSet(item, body.Site):
			s.flocks.Set(item, body.Site)
			s.stats.FailLocksSet++
		case !body.Set && s.flocks.IsSet(item, body.Site):
			s.flocks.Clear(item, body.Site)
			s.stats.FailLocksCleared++
		}
	}
	s.mu.Unlock()
	s.caller.Reply(env, &msg.ClearFailLocksAck{Txn: body.Txn})
	mode := "clear"
	if body.Set {
		mode = "set"
	}
	s.emit(env.Trace, trace.PhaseClearFL, fmt.Sprintf("%s site=%d items=%d", mode, body.Site, len(body.Items)), start)
}

// handleCtrlRecover is a type-1 control transaction at an operational
// site: record the recovering site's new session number and ship back the
// session vector and fail-locks (§1.1), with this site's copy versions so
// the recovering site can fold every donor by the staleness rule.
func (s *Site) handleCtrlRecover(env *msg.Envelope, body *msg.CtrlRecover) {
	start := time.Now()
	s.mu.Lock()
	if s.state.get() != core.StatusUp {
		s.mu.Unlock()
		return
	}
	s.vec.MarkUp(body.Site, body.Session)
	resp := &msg.CtrlRecoverAck{
		OK:        true,
		Vector:    s.vec.Records(),
		FailLocks: s.flocks.Snapshot(),
		Versions:  s.store.Versions(),
	}
	s.mu.Unlock()
	s.caller.Reply(env, resp)
	s.reg.Observe(TimerCtrl1Operational, time.Since(start))
	s.emit(env.Trace, trace.PhaseCtrl1, "operational", start)
}

// handleCtrlFail is a type-2 control transaction at a receiving site: mark
// the announced sites down, unless this site knows of a newer session for
// them (the announcement is stale).
func (s *Site) handleCtrlFail(env *msg.Envelope, body *msg.CtrlFail) {
	start := time.Now()
	s.mu.Lock()
	for _, f := range body.Failed {
		if f.Site == s.cfg.ID {
			continue // we know our own state better
		}
		if int(f.Site) < s.vec.Len() && s.vec.Session(f.Site) <= f.Session {
			s.vec.MarkDown(f.Site)
		}
	}
	s.mu.Unlock()
	s.caller.Reply(env, &msg.CtrlFailAck{})
	s.emit(env.Trace, trace.PhaseCtrl2, fmt.Sprintf("failed=%d", len(body.Failed)), start)
	if s.cfg.EnableType3 {
		s.wg.Add(1)
		go s.maybeReplicate(env.Trace)
	}
}

// handleCtrlReplicate is a type-3 control transaction at the backup site:
// install the pushed copies and clear the local fail-locks for them.
func (s *Site) handleCtrlReplicate(env *msg.Envelope, body *msg.CtrlReplicate) {
	s.mu.Lock()
	if s.state.get() != core.StatusUp {
		s.mu.Unlock()
		return
	}
	for _, iv := range body.Items {
		if _, err := s.store.Apply(iv); err != nil {
			s.mu.Unlock()
			s.caller.Reply(env, &msg.CtrlReplicateAck{OK: false})
			return
		}
		if s.flocks.IsSet(iv.Item, s.cfg.ID) {
			s.flocks.Clear(iv.Item, s.cfg.ID)
			s.stats.FailLocksCleared++
		}
	}
	s.mu.Unlock()
	s.caller.Reply(env, &msg.CtrlReplicateAck{OK: true})
}

// handleCtrlLockSync finishes a type-1 control transaction from the
// recovered site's side. Its words carry staleness only the sender knew
// about — writes it committed while it believed the rest of the system
// down marked the other copies stale in its table alone — and its
// versions are the top versions its recovery saw. Per item the sender's
// (version, word) is one more report for the staleness rule beside this
// site's own copy and word: where this copy is ahead the own word stays,
// at a tie the words are OR-ed, and where this copy is behind the
// sender's word is taken with this site's own bit set if it hosts the
// item. Versions and lock words are read and merged under the site lock,
// atomically with commit-time maintenance.
func (s *Site) handleCtrlLockSync(env *msg.Envelope, body *msg.CtrlLockSync) {
	start := time.Now()
	s.mu.Lock()
	if s.state.get() != core.StatusUp {
		s.mu.Unlock()
		return
	}
	words, vers := s.flocks.Snapshot(), s.store.Versions()
	// A length mismatch means a mis-sized peer: drop the merge.
	if len(body.FailLocks) == len(words) && len(body.Versions) == len(words) {
		rep := s.replicaMap()
		for i := range words {
			var j core.Staleness
			j.Copy(s.cfg.ID, vers[i], words[i])
			j.Add(0, body.Versions[i], body.FailLocks[i])
			words[i] = j.Word(rep.HostMask(core.ItemID(i)))
		}
		_ = s.flocks.Install(words)
	}
	s.mu.Unlock()
	s.caller.Reply(env, &msg.CtrlLockSyncAck{})
	s.emit(env.Trace, trace.PhaseCtrl1, "lock-sync", start)
}

// handleCtrlRehost re-homes a permanently lost site's copies: for each
// (item, new host) pair the replica map's host bit moves from the lost
// site to the new host, the new host's copy is fail-locked (it holds no
// data yet — copiers populate it on demand or via drain), and any stray
// bit for the lost site is dropped (it no longer hosts, so it can no
// longer be stale). The map is replaced copy-on-write: concurrent
// readers keep the old snapshot; the handler runs in the event loop, so
// rehosts themselves are serialized.
func (s *Site) handleCtrlRehost(env *msg.Envelope, body *msg.CtrlRehost) {
	start := time.Now()
	if len(body.Items) != len(body.NewHosts) {
		s.caller.Reply(env, &msg.CtrlRehostAck{OK: false, Reason: "items/hosts length mismatch"})
		return
	}
	for i, item := range body.Items {
		if int(item) >= s.cfg.Items || int(body.NewHosts[i]) >= s.cfg.Sites || int(body.Lost) >= s.cfg.Sites {
			s.caller.Reply(env, &msg.CtrlRehostAck{OK: false, Reason: "item or site out of range"})
			return
		}
	}
	s.mu.Lock()
	if s.state.get() != core.StatusUp {
		s.mu.Unlock()
		s.caller.Reply(env, &msg.CtrlRehostAck{OK: false, Reason: "not operational"})
		return
	}
	next := s.replicaMap().Clone()
	for i, item := range body.Items {
		next.Rehost(item, body.Lost, body.NewHosts[i])
		if !s.flocks.IsSet(item, body.NewHosts[i]) {
			s.flocks.Set(item, body.NewHosts[i])
			s.stats.FailLocksSet++
		}
		if s.flocks.IsSet(item, body.Lost) {
			s.flocks.Clear(item, body.Lost)
			s.stats.FailLocksCleared++
		}
	}
	s.replicas.Store(next)
	s.mu.Unlock()
	s.caller.Reply(env, &msg.CtrlRehostAck{OK: true})
	s.emit(env.Trace, trace.PhaseCtrl1, fmt.Sprintf("rehost lost=%d items=%d", body.Lost, len(body.Items)), start)
}

// handleReadReq serves a remote read: version voting for the quorum
// baseline (any copy qualifies), or a fresh-copy read for partially
// replicated ROWAA (RequireFresh: this site must host the item and its
// copy must not be fail-locked).
func (s *Site) handleReadReq(env *msg.Envelope, body *msg.ReadReq) {
	start := time.Now()
	rep := s.replicaMap()
	s.mu.Lock()
	if s.state.get() != core.StatusUp {
		s.mu.Unlock()
		return
	}
	items := make([]core.ItemVersion, 0, len(body.Items))
	for _, item := range body.Items {
		if body.RequireFresh && (int(item) >= s.cfg.Items ||
			!rep.IsHost(item, s.cfg.ID) || s.flocks.IsSet(item, s.cfg.ID)) {
			s.mu.Unlock()
			s.caller.Reply(env, &msg.ReadResp{Txn: body.Txn, OK: false})
			return
		}
		iv, err := s.store.Get(item)
		if err != nil {
			s.mu.Unlock()
			s.caller.Reply(env, &msg.ReadResp{Txn: body.Txn, OK: false})
			return
		}
		items = append(items, iv)
	}
	s.mu.Unlock()
	s.caller.Reply(env, &msg.ReadResp{Txn: body.Txn, OK: true, Items: items})
	s.emit(env.Trace, trace.PhaseRead, fmt.Sprintf("items=%d", len(items)), start)
}

// handleStatusReq serves the managing site's instrumentation probe. It is
// answered even by a failed site: the probe is out-of-band measurement
// machinery, not a protocol action.
func (s *Site) handleStatusReq(env *msg.Envelope, body *msg.StatusReq) {
	s.mu.Lock()
	resp := s.statusRespLocked(body.IncludeFailLocks)
	s.mu.Unlock()
	s.caller.Reply(env, resp)
}

// handleDumpReq serves the consistency audit. With HostedOnly the dump
// is filtered to the items this site hosts, so a partial-replication
// audit moves O(items×degree) copies instead of O(items×sites).
func (s *Site) handleDumpReq(env *msg.Envelope, body *msg.DumpReq) {
	items, err := s.store.Dump(body.First, body.Last)
	if err != nil {
		items = nil
	}
	if body.HostedOnly {
		rep := s.replicaMap()
		if !rep.IsFull() {
			hosted := items[:0:0]
			for _, iv := range items {
				if rep.IsHost(iv.Item, s.cfg.ID) {
					hosted = append(hosted, iv)
				}
			}
			items = hosted
		}
	}
	s.caller.Reply(env, &msg.DumpResp{Items: items})
}
