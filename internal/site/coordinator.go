package site

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
	"minraid/internal/trace"
	"minraid/internal/transport"
	"minraid/internal/txn"
)

// coordinator is one long-lived coordinator worker: it takes client
// transactions off the site's queue in arrival order and runs each to its
// outcome. A site runs one worker in the paper's serial mode and
// ConcurrentTxns of them in concurrent mode, all started by Start; they
// exit once the receive loop has exited and closed the queue.
func (s *Site) coordinator() {
	defer s.wg.Done()
	for {
		env, ok := s.txns.pop()
		if !ok {
			return
		}
		s.coordinate(env, env.Body.(*msg.ClientTxn))
	}
}

// coordinate runs one database transaction as coordinator (Appendix A.1).
// It runs on a coordinator worker, so with the serial mode's one worker
// transactions are processed one at a time as in the paper, and replies to
// the managing site with the outcome and the coordinator-measured elapsed
// time.
func (s *Site) coordinate(env *msg.Envelope, body *msg.ClientTxn) {
	start := time.Now()
	t := txn.Txn{ID: body.Txn, Ops: body.Ops}
	tr := env.Trace
	reads := core.ReadSet(t.Ops)

	// Concurrent mode: strict 2PL — shared locks on the read set,
	// exclusive on the write set, held until the transaction completes.
	// A failure here is a retriable lock-wait timeout: contention, or a
	// cycle spanning sites that only the timeout can break.
	if s.concurrent() {
		lm := s.lockManager()
		if err := lm.AcquireAll(t.ID, reads, core.WriteSet(t.Ops)); err != nil {
			lm.Release(t.ID)
			s.mu.Lock()
			s.stats.Aborted++
			up := s.state.get() == core.StatusUp
			s.mu.Unlock()
			if up {
				s.reg.Add(CounterAborts, 1)
				s.emit(tr, trace.PhaseAbort, txn.AbortLockTimeout, start)
				s.caller.Reply(env, &msg.TxnResult{
					Txn: t.ID, AbortReason: txn.AbortLockTimeout,
					ElapsedNanos: uint64(time.Since(start).Nanoseconds()),
				})
			}
			return
		}
		defer lm.Release(t.ID)
	}

	res := s.executeTxn(t, reads, tr)
	elapsed := time.Since(start)

	s.mu.Lock()
	state := s.state.get()
	if res.Committed {
		s.stats.Committed++
	} else {
		s.stats.Aborted++
	}
	s.mu.Unlock()
	if state != core.StatusUp {
		return // failed mid-transaction: stay silent
	}

	if res.Committed {
		if res.Copiers > 0 {
			s.reg.Observe(TimerCoordTxnCopier, elapsed)
		} else {
			s.reg.Observe(TimerCoordTxn, elapsed)
		}
		s.reg.Add(CounterCommits, 1)
		s.emit(tr, trace.PhaseCoord, "committed", start)
	} else {
		s.reg.Add(CounterAborts, 1)
		s.emit(tr, trace.PhaseAbort, res.AbortReason, start)
	}
	s.caller.Reply(env, &msg.TxnResult{
		Txn:          res.Txn,
		Committed:    res.Committed,
		AbortReason:  res.AbortReason,
		Reads:        res.Reads,
		Copiers:      uint32(res.Copiers),
		ElapsedNanos: uint64(elapsed.Nanoseconds()),
	})
}

// executeTxn is the coordinator's transaction body; reads is t's read set.
// The structure follows Appendix A.1: copier transactions first, then
// reads, then the two-phase commit of the written items.
func (s *Site) executeTxn(t txn.Txn, reads []core.ItemID, tr uint64) txn.Result {
	res := txn.Result{Txn: t.ID}
	if err := t.Validate(s.cfg.Items); err != nil {
		res.AbortReason = txn.AbortInvalid
		return res
	}

	// "if transaction contains read operation for a fail-locked copy then
	// run copier transaction" (Appendix A.1).
	if s.pol.UsesFailLocks() && !s.cfg.DisableFailLockMaintenance {
		stale := s.staleReadItems(reads)
		if len(stale) > 0 {
			n, reason := s.runCopiers(stale, t.ID, tr)
			res.Copiers += n
			if reason != "" {
				res.AbortReason = reason
				return res
			}
		}
	}

	// Reads observe the pre-transaction state (writes apply at commit).
	if s.pol.LocalRead() {
		// Partial replication: fetch items this site does not host from
		// an up-to-date hosting site (read-one of an available copy).
		remote, reason := s.remoteReads(t.ID, reads, tr)
		if reason != "" {
			res.AbortReason = reason
			return res
		}
		for _, op := range t.Ops {
			if op.Kind != core.OpRead {
				continue
			}
			if iv, ok := remote[op.Item]; ok {
				res.Reads = append(res.Reads, iv)
				continue
			}
			iv, err := s.store.Get(op.Item)
			if err != nil {
				res.AbortReason = txn.AbortInvalid
				return res
			}
			res.Reads = append(res.Reads, iv)
		}
	} else {
		got, ok := s.quorumRead(t, reads, tr)
		if !ok {
			res.AbortReason = txn.AbortNoQuorum
			return res
		}
		res.Reads = got
	}

	writes := t.WriteVersions()
	if len(writes) == 0 {
		res.Committed = true
		return res
	}

	// Phase one: "issue copy update for written items to every
	// operational site" (per policy; ROWA contacts every site). Under
	// partial replication each operational site receives the copies it
	// hosts plus maintenance-only notices for the rest; an item with no
	// operational copy at all cannot be written, even by ROWAA.
	s.mu.Lock()
	if s.state.get() != core.StatusUp {
		s.mu.Unlock()
		res.AbortReason = txn.AbortSiteDown
		return res
	}
	vec := s.vec.Clone()
	s.mu.Unlock()
	rep := s.replicaMap()
	targets := s.pol.WriteTargets(vec, s.cfg.ID)

	localWrites := writes
	var localMaint []core.ItemID // written items this site does not host
	perSite := map[core.SiteID][]core.ItemVersion{}
	perSiteMaint := map[core.SiteID][]core.ItemID{}
	if !rep.IsFull() {
		localWrites = localWrites[:0:0]
		for _, iv := range writes {
			avail := 0
			if rep.IsHost(iv.Item, s.cfg.ID) {
				localWrites = append(localWrites, iv)
				avail++
			} else {
				localMaint = append(localMaint, iv.Item)
			}
			for _, target := range targets {
				if rep.IsHost(iv.Item, target) {
					perSite[target] = append(perSite[target], iv)
					avail++
				} else if s.pol.UsesFailLocks() {
					perSiteMaint[target] = append(perSiteMaint[target], iv.Item)
				}
			}
			if avail == 0 {
				res.AbortReason = txn.AbortWriteUnavailable
				return res
			}
		}
		if !s.pol.UsesFailLocks() {
			// No fail-lock tables to maintain (quorum): a site hosting
			// none of the written items has nothing to receive, so the
			// commit fan-out stays proportional to the items' hosting
			// degrees instead of the cluster size.
			contacted := targets[:0:0]
			for _, target := range targets {
				if len(perSite[target]) > 0 {
					contacted = append(contacted, target)
				}
			}
			targets = contacted
		}
	}

	var acked, nacked, silent []core.SiteID
	var nackReason string
	var peerVersions []uint64 // concurrent mode: the highest acked version per write
	if len(targets) > 0 {
		// Full replication sends every target the same prepare, so one
		// serves them all: each send encodes it before returning.
		var full *msg.Prepare
		if rep.IsFull() {
			full = &msg.Prepare{Txn: t.ID, Vector: vec.Records(), Writes: writes}
		}
		results := s.caller.MulticastT(tr, transport.Outcalls(targets, func(target core.SiteID) msg.Body {
			if full != nil {
				return full
			}
			return &msg.Prepare{
				Txn:       t.ID,
				Vector:    vec.Records(),
				Writes:    perSite[target],
				MaintOnly: perSiteMaint[target],
			}
		}))
		for _, r := range results {
			id := r.To
			var ack *msg.PrepareAck
			if r.Err == nil {
				ack, _ = r.Reply.Body.(*msg.PrepareAck) // wrong type = no vote
			}
			switch {
			case ack == nil:
				silent = append(silent, id)
			case ack.OK:
				acked = append(acked, id)
				if len(ack.Versions) == len(writes) {
					if peerVersions == nil {
						peerVersions = make([]uint64, len(writes))
					}
					for i, v := range ack.Versions {
						peerVersions[i] = max(peerVersions[i], v)
					}
				}
			default:
				nacked = append(nacked, id)
				if nackReason == "" {
					nackReason = ack.Reason
				}
			}
		}
	}

	short := len(acked) < s.pol.RequiredAcks(s.cfg.Sites, len(targets))
	if !rep.IsFull() && !s.pol.AbortOnMissingAck() {
		// Per-item write quorums: a majority of the cluster can exceed a
		// partially replicated item's copy count, which would leave the
		// item permanently unwritable. Judge each written item against
		// its own hosting degree instead — the copies actually updated
		// (the coordinator's own hosted copy plus acked hosting targets)
		// must reach the policy's quorum for that degree.
		short = false
		for _, iv := range writes {
			updated, contacted := 0, 0
			if rep.IsHost(iv.Item, s.cfg.ID) {
				updated++
			}
			for _, id := range targets {
				if rep.IsHost(iv.Item, id) {
					contacted++
				}
			}
			for _, id := range acked {
				if rep.IsHost(iv.Item, id) {
					updated++
				}
			}
			// +1 converts RequiredAcks's acks-from-others count into a
			// total copy count including the coordinator's.
			if updated < s.pol.RequiredAcks(rep.Degree(iv.Item), contacted)+1 {
				short = true
				break
			}
		}
	}
	if (s.pol.AbortOnMissingAck() && (len(silent) > 0 || len(nacked) > 0)) || short {
		// "abort database transaction; run control type 2 transaction to
		// announce failure" (Appendix A.1).
		s.sendAbort(append(acked, silent...), t.ID, tr)
		s.announceFailure(s.perceivedUp(vec, silent), tr)
		switch {
		case len(silent) > 0:
			res.AbortReason = txn.AbortParticipantDown
		case nackReason != "":
			res.AbortReason = nackReason
		default:
			res.AbortReason = txn.AbortNoQuorum
		}
		return res
	}

	// Concurrent mode: assign each written item's final version now —
	// every copy is exclusively locked (locally since acquisition, at
	// the participants since their prepares), so one above the highest
	// committed copy, the acked participants' included, keeps version
	// numbers strictly increasing in commit order. The local copy alone is
	// not enough: a blind write refreshes a recovered site's stale copy
	// without a copier (§1.1). The prepares were encoded when sent, so
	// the stamps go into writes itself, which concurrent mode's full
	// replication makes the local set too.
	var commitVersions []core.ItemVersion
	if s.concurrent() {
		commitVersions = make([]core.ItemVersion, 0, len(writes))
		for i := range writes {
			cur, err := s.store.Get(writes[i].Item)
			if err != nil {
				panic("site: reading version of locked item: " + err.Error())
			}
			top := cur.Version
			if peerVersions != nil {
				top = max(top, core.TxnID(peerVersions[i]))
			}
			writes[i].Version = top + 1
			commitVersions = append(commitVersions, core.ItemVersion{
				Item: writes[i].Item, Version: writes[i].Version,
			})
		}
	}

	d := &decided{
		id: t.ID, writes: writes, localWrites: localWrites, localMaint: localMaint,
		versions: commitVersions, acked: acked, vec: vec, tr: tr,
	}
	s.retire(d)
	res.Committed = d.reason == ""
	res.AbortReason = d.reason
	return res
}

// decided is one transaction past its commit decision, awaiting phase two.
type decided struct {
	id          core.TxnID
	writes      []core.ItemVersion // full write set (final versions in concurrent mode)
	localWrites []core.ItemVersion // the subset this site hosts
	localMaint  []core.ItemID      // written items this site does not host
	versions    []core.ItemVersion // commit-version overlay shipped to participants
	acked       []core.SiteID      // participants that acked phase one
	vec         core.SessionVector // the vector the prepares carried
	tr          uint64
	reason      string        // the verdict: empty once committed, else the abort reason
	done        chan struct{} // closed once the verdict is set (epoch mode)
}

// retire runs phase two for d and leaves the verdict in d.reason. The
// commit epoch decides only how many transactions one phaseTwo call
// retires and who waits for the commit acks: at zero the transaction is
// an epoch of one, retired inline with its acks collected before the
// client hears the outcome (and, in concurrent mode, before its locks
// release); above zero the batcher's flush retires it with its epoch and
// collects the acks in the background.
func (s *Site) retire(d *decided) {
	if s.epoch != nil {
		s.epoch.commit(d)
	} else if collect := s.phaseTwo([]*decided{d}); collect != nil {
		collect()
	}
}

// phaseTwo is Appendix A.1's phase two for a batch of decided
// transactions: re-validate each decision, commit the local copies and
// maintain fail-locks, send every acked participant one commit message
// for its share, and set each entry's verdict. It returns the commit-ack
// collector, nil when nothing was sent.
func (s *Site) phaseTwo(batch []*decided) (collect func()) {
	// Point of decision: re-validate the vector before ordering anyone to
	// commit. If a site recovered into a newer session while the
	// transaction was in flight (or queued for its epoch), its copy was
	// not in the write set and would miss the write untracked; abort
	// instead — "the status of a site has changed during the execution of
	// a transaction" (§1.1). No participant has committed and no client
	// has been answered, so the abort is still legal.
	//
	// The re-validation, the local applies and the sends are one s.mu
	// hold, so a simulated failure (which takes s.mu) lands before all of
	// them or after all of them: either nobody commits and the
	// participants' decision timers discard their staged halves, or our
	// copy holds the write every acked participant is ordered to commit
	// and the failure only cancels the ack wait. A.1 lists the local commit
	// after the sends, and the ack wait between them (DESIGN.md §5).
	s.mu.Lock()
	up := s.state.get() == core.StatusUp
	var commits, stale []*decided
	for _, d := range batch {
		switch {
		case !up:
			d.reason = txn.AbortSiteDown
		case s.sessionAdvanced(d.vec):
			stale = append(stale, d)
		default:
			commits = append(commits, d)
		}
	}

	// "commit database data items; update fail-locks for data items",
	// for the whole batch under one lock hold so a WAL store group-commits
	// the applies. Maintenance uses the vector the prepares carried, so
	// every committing site computes identical bits.
	for _, d := range commits {
		for _, iv := range d.localWrites {
			if _, err := s.store.Apply(iv); err != nil {
				panic("site: applying local write: " + err.Error())
			}
		}
		s.maintainFailLocksLocked(d.localWrites, d.localMaint, d.vec)
	}

	// "send commit indication to participating sites": one message per
	// acked participant carrying its share in batch order — a Commit for
	// one transaction, a CommitBatch for more. The sends come last and
	// precede every verdict: the coordinator readies the participants
	// just before it waits for them, and a client told "committed" implies
	// the commit is at least in flight to every acked participant. Every
	// send only queues the message, so none blocks under s.mu.
	order := make([]core.SiteID, 0, s.cfg.Sites)
	n := 0
	for _, d := range commits {
		n += len(d.acked)
		for _, id := range d.acked {
			if !slices.Contains(order, id) {
				order = append(order, id)
			}
		}
	}
	var join func() []transport.CallResult
	if len(order) > 0 {
		calls := make([]transport.Outcall, len(order))
		if len(commits) == 1 {
			// An epoch of one: every participant's share is the same
			// commit, and one body serves them all.
			one := &msg.Commit{Txn: commits[0].id, Versions: commits[0].versions}
			for i, id := range order {
				calls[i] = transport.Outcall{To: id, Body: one}
			}
		} else {
			entries := make([]msg.CommitEntry, 0, n)
			for i, id := range order {
				start := len(entries)
				for _, d := range commits {
					if slices.Contains(d.acked, id) {
						entries = append(entries, msg.CommitEntry{Txn: d.id, Versions: d.versions})
					}
				}
				share := entries[start:len(entries):len(entries)]
				calls[i].To = id
				if len(share) == 1 {
					calls[i].Body = &msg.Commit{Txn: share[0].Txn, Versions: share[0].Versions}
				} else {
					calls[i].Body = &msg.CommitBatch{Txns: share}
				}
			}
		}
		join = s.caller.MulticastAsyncT(commits[0].tr, calls)
	}
	s.mu.Unlock()

	for _, d := range stale {
		s.sendAbort(d.acked, d.id, d.tr)
		d.reason = txn.AbortStaleSession
	}
	if join == nil {
		return nil
	}
	return func() { s.collectCommitAcks(order, commits, join) }
}

// collectCommitAcks awaits one phase two's commit acks. A missing ack
// triggers a type-2 announcement — once per lost participant — but the
// transactions stay committed; a participant lost between phases may or
// may not have applied its share, so each transaction's items are
// conservatively fail-locked for it everywhere (Appendix A.1 places the
// fail-lock update after the type-2 for exactly this case).
func (s *Site) collectCommitAcks(order []core.SiteID, commits []*decided, join func() []transport.CallResult) {
	var lost, announced []core.SiteID
	for i, r := range join() {
		if errors.Is(r.Err, transport.ErrCancelled) {
			return // local failure mid-collection: stop silently
		}
		if r.Err != nil {
			lost = append(lost, order[i])
		}
	}
	if len(lost) == 0 {
		return
	}
	for _, d := range commits {
		var here, fresh []core.SiteID
		for _, id := range d.acked {
			if slices.Contains(lost, id) {
				here = append(here, id)
			}
		}
		for _, id := range s.perceivedUp(d.vec, here) {
			if !slices.Contains(announced, id) {
				announced = append(announced, id)
				fresh = append(fresh, id)
			}
		}
		s.announceFailure(fresh, d.tr)
		s.markLostParticipants(here, d.writes, d.tr)
	}
}

// sessionAdvanced reports whether any site's session is newer than vec
// records: a site recovered after vec was taken. Callers hold mu.
func (s *Site) sessionAdvanced(vec core.SessionVector) bool {
	for k := 0; k < s.vec.Len(); k++ {
		if s.vec.Session(core.SiteID(k)) > vec.Session(core.SiteID(k)) {
			return true
		}
	}
	return false
}

// markLostParticipants sets fail-locks for the given sites on the written
// items, locally and at every operational site, after a phase-two loss.
func (s *Site) markLostParticipants(lost []core.SiteID, writes []core.ItemVersion, tr uint64) {
	// Only the items a lost site hosts can be stale there: shipping the
	// full written set would plant that site's fail-lock bit on items it
	// holds no copy of, in every table in the system, and the audit
	// rightly flags such bits as stray.
	rep := s.replicaMap()
	perLost := make(map[core.SiteID][]core.ItemID, len(lost))
	for _, site := range lost {
		for _, iv := range writes {
			if rep.IsHost(iv.Item, site) {
				perLost[site] = append(perLost[site], iv.Item)
			}
		}
	}
	s.mu.Lock()
	for _, site := range lost {
		for _, item := range perLost[site] {
			if !s.flocks.IsSet(item, site) {
				s.flocks.Set(item, site)
				s.stats.FailLocksSet++
			}
		}
	}
	targets := s.vec.Operational(s.cfg.ID)
	s.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	// One fan-out carries every (lost site, target) update — the same
	// lost×targets messages as before, but in parallel under one shared
	// deadline instead of up to lost×targets blocking ack timeouts. A
	// target whose ack never arrives is itself down and gets announced;
	// on recovery it installs its fail-lock table from a site that heard.
	calls := make([]transport.Outcall, 0, len(lost)*len(targets))
	for _, site := range lost {
		if len(perLost[site]) == 0 {
			continue
		}
		for _, target := range targets {
			calls = append(calls, transport.Outcall{To: target, Body: &msg.ClearFailLocks{Site: site, Items: perLost[site], Set: true}})
		}
	}
	if len(calls) == 0 {
		return
	}
	var silent []core.SiteID
	seen := make(map[core.SiteID]bool, len(targets))
	for _, r := range s.caller.MulticastT(tr, calls) {
		if errors.Is(r.Err, transport.ErrCancelled) {
			return // local failure mid-fan-out: stop silently
		}
		if r.Err != nil && !seen[r.To] {
			seen[r.To] = true
			silent = append(silent, r.To)
		}
	}
	if len(silent) > 0 {
		s.announceFailure(silent, tr)
	}
}

// remoteReads fetches fresh copies of the items of the transaction's read
// set this site does not host, from up-to-date hosting sites. It returns an
// empty map under full replication. On failure it returns the abort reason.
//
// A failed donor does not fail the read while other candidates remain:
// each round fans out to one donor per pending item, and items whose
// donor stayed silent (announced down) or sent an unusable reply (a
// decode problem, not a liveness signal — never announced) are retried
// against the remaining candidates. Only when an item has exhausted
// every up-to-date hosting site does the transaction abort — with
// AbortDonorDown if a donor loss forced the exhaustion, AbortNoDonor
// when no candidate existed at all.
func (s *Site) remoteReads(id core.TxnID, reads []core.ItemID, tr uint64) (map[core.ItemID]core.ItemVersion, string) {
	rep := s.replicaMap()
	if rep.IsFull() {
		return nil, ""
	}
	var pending []core.ItemID
	for _, item := range reads {
		if !rep.IsHost(item, s.cfg.ID) {
			pending = append(pending, item)
		}
	}
	if len(pending) == 0 {
		return nil, ""
	}

	out := make(map[core.ItemID]core.ItemVersion)
	tried := make(map[core.ItemID]uint64, len(pending))
	sawDown := false
	for len(pending) > 0 {
		s.mu.Lock()
		byDonor := map[core.SiteID][]core.ItemID{}
		var order []core.SiteID
		for _, item := range pending {
			donor, found := s.pickDonorLocked(rep, item, tried[item])
			if !found {
				s.mu.Unlock()
				if sawDown {
					return nil, txn.AbortDonorDown
				}
				return nil, txn.AbortNoDonor
			}
			tried[item] |= 1 << donor
			if _, ok := byDonor[donor]; !ok {
				order = append(order, donor)
			}
			byDonor[donor] = append(byDonor[donor], item)
		}
		s.mu.Unlock()

		// This round's donors are read in parallel under one shared
		// deadline; results are processed in donor order so abort reasons
		// stay deterministic.
		calls := make([]transport.Outcall, len(order))
		for i, donor := range order {
			calls[i] = transport.Outcall{To: donor, Body: &msg.ReadReq{Txn: id, Items: byDonor[donor], RequireFresh: true}}
		}
		pending = pending[:0]
		var announce []core.SiteID
		for i, r := range s.caller.MulticastT(tr, calls) {
			donor := order[i]
			if errors.Is(r.Err, transport.ErrCancelled) {
				return nil, txn.AbortSiteDown
			}
			if r.Err != nil {
				// Silence: the donor is genuinely unresponsive.
				announce = append(announce, donor)
				sawDown = true
				pending = append(pending, byDonor[donor]...)
				continue
			}
			resp, wellTyped := r.Reply.Body.(*msg.ReadResp)
			if !wellTyped || !resp.OK {
				// The donor answered — it is alive. A wrong-typed body or a
				// refusal is a protocol problem, not a failure; retry the
				// items elsewhere without announcing the donor down.
				pending = append(pending, byDonor[donor]...)
				continue
			}
			got := make(map[core.ItemID]core.ItemVersion, len(resp.Items))
			for _, iv := range resp.Items {
				got[iv.Item] = iv
			}
			for _, item := range byDonor[donor] {
				iv, ok := got[item]
				if !ok {
					// An OK reply missing an item we asked for is the same
					// class of decode problem as a wrong-typed body: without
					// this check the coordinator would silently fall back to
					// its own non-hosted (zero) copy. Retry elsewhere.
					pending = append(pending, item)
					continue
				}
				out[item] = iv
			}
		}
		if len(announce) > 0 {
			s.announceFailure(announce, tr)
		}
	}
	return out, ""
}

// pickDonorLocked returns an operational hosting site holding an
// up-to-date copy of item, skipping sites in the excluded bitmask
// (donors already tried). Callers hold mu.
func (s *Site) pickDonorLocked(rep *core.ReplicaMap, item core.ItemID, excluded uint64) (core.SiteID, bool) {
	for _, cand := range s.flocks.UpToDateSites(item, s.cfg.ID) {
		if excluded&(1<<cand) != 0 {
			continue
		}
		if s.vec.IsUp(cand) && rep.IsHost(item, cand) {
			return cand, true
		}
	}
	return 0, false
}

// staleReadItems returns the items of the read set whose local copies are
// fail-locked for this site. Items this site does not host are excluded:
// there is no local copy to refresh (remoteReads serves them instead).
func (s *Site) staleReadItems(reads []core.ItemID) []core.ItemID {
	rep := s.replicaMap()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []core.ItemID
	for _, item := range reads {
		if rep.IsHost(item, s.cfg.ID) && s.flocks.IsSet(item, s.cfg.ID) {
			out = append(out, item)
		}
	}
	return out
}

// runCopiers refreshes the given out-of-date items via copier
// transactions: read a good copy from an operational up-to-date site,
// install it locally, clear the local fail-lock, then run the special
// transaction propagating the clears (§1.2, Appendix A.1).
//
// It returns the number of copier transactions issued and an abort reason
// when a copy could not be obtained.
func (s *Site) runCopiers(items []core.ItemID, id core.TxnID, tr uint64) (int, string) {
	// Choose a donor per item: an operational site whose copy carries no
	// fail-lock.
	rep := s.replicaMap()
	s.mu.Lock()
	byDonor := make(map[core.SiteID][]core.ItemID)
	order := make([]core.SiteID, 0, 2)
	for _, item := range items {
		if !s.flocks.IsSet(item, s.cfg.ID) {
			continue // already refreshed (e.g. by a concurrent commit)
		}
		donor, found := s.pickDonorLocked(rep, item, 0)
		if !found {
			s.mu.Unlock()
			return 0, txn.AbortNoDonor
		}
		if _, ok := byDonor[donor]; !ok {
			order = append(order, donor)
		}
		byDonor[donor] = append(byDonor[donor], item)
	}
	s.mu.Unlock()

	count := 0
	var refreshed []core.ItemID
	// Every donor is fetched in parallel under one shared deadline;
	// replies are applied in donor order so abort reasons and stats stay
	// deterministic.
	calls := make([]transport.Outcall, len(order))
	for i, donor := range order {
		s.reg.Add(CounterDemandCopiers, 1)
		calls[i] = transport.Outcall{To: donor, Body: &msg.CopyRequest{Txn: id, Items: byDonor[donor]}}
	}
	fanStart := time.Now()
	for i, r := range s.caller.MulticastT(tr, calls) {
		donor := order[i]
		if errors.Is(r.Err, transport.ErrCancelled) {
			return count, txn.AbortSiteDown
		}
		if r.Err != nil {
			// "site to which copy request sent is now down": abort and
			// announce (Appendix A.1).
			s.announceFailure([]core.SiteID{donor}, tr)
			return count, txn.AbortDonorDown
		}
		resp, wellTyped := r.Reply.Body.(*msg.CopyResponse)
		if !wellTyped {
			// The donor answered — it is alive; a wrong-typed body is a
			// decode problem, never grounds to announce it down.
			return count, txn.AbortDonorDown
		}
		if !resp.OK {
			return count, txn.AbortNoDonor
		}
		s.mu.Lock()
		for _, iv := range resp.Items {
			if _, err := s.store.Apply(iv); err != nil {
				panic("site: applying copier write: " + err.Error())
			}
			if s.flocks.IsSet(iv.Item, s.cfg.ID) {
				s.flocks.Clear(iv.Item, s.cfg.ID)
				s.stats.FailLocksCleared++
			}
			refreshed = append(refreshed, iv.Item)
		}
		s.stats.CopiersRequested++
		s.mu.Unlock()
		s.emit(tr, trace.PhaseCopier, fmt.Sprintf("donor=%d items=%d", donor, len(byDonor[donor])), fanStart)
		count++
	}

	if len(refreshed) > 0 {
		s.clearFailLocksEverywhere(refreshed, tr)
	}
	return count, ""
}

// clearFailLocksEverywhere runs the special transaction informing the
// other operational sites of the fail-lock bits cleared by copier
// transactions (§1.2). Failures are announced but do not abort: the
// refreshed copies are already installed.
func (s *Site) clearFailLocksEverywhere(items []core.ItemID, tr uint64) {
	s.mu.Lock()
	targets := s.vec.Operational(s.cfg.ID)
	s.mu.Unlock()
	lost, cancelled := s.fanoutClears(targets, &msg.ClearFailLocks{Site: s.cfg.ID, Items: items}, tr)
	if cancelled {
		return // local failure mid-fan-out: stop silently
	}
	if len(lost) > 0 {
		s.announceFailure(lost, tr)
	}
}

// fanoutClears multicasts one ClearFailLocks body to every target in
// parallel under a single shared ack deadline, so k unresponsive targets
// cost ~1 timeout instead of k. Each acknowledging site is timed and
// traced. lost lists the targets whose ack never arrived (send failure or
// timeout) — silent sites the caller announces; a target that answered is
// alive and must never be announced. cancelled reports that the local
// site failed with the fan-out in flight: the caller must stop quietly.
func (s *Site) fanoutClears(targets []core.SiteID, body *msg.ClearFailLocks, tr uint64) (lost []core.SiteID, cancelled bool) {
	if len(targets) == 0 {
		return nil, false
	}
	start := time.Now()
	results := s.caller.MulticastT(tr, transport.Outcalls(targets, func(core.SiteID) msg.Body { return body }))
	for _, r := range results {
		switch {
		case errors.Is(r.Err, transport.ErrCancelled):
			cancelled = true
		case r.Err != nil:
			lost = append(lost, r.To)
		default:
			s.reg.Observe(TimerClearFailLocks, r.RTT)
			s.emit(tr, trace.PhaseClearFL, fmt.Sprintf("target=%d items=%d", r.To, len(body.Items)), start)
		}
	}
	s.reg.Observe(TimerClearFanout, time.Since(start))
	return lost, cancelled
}

// quorumRead collects, for every read item, ReadQuorum versioned copies
// from the item's hosting sites (counting the local copy when this site
// hosts one) and returns, per read operation, the highest version
// observed. Used only by the quorum baseline.
//
// Quorums are sized per item from its hosting degree: under partial
// replication a global majority of sites can exceed an item's copy
// count, and a non-hosting site's answer is not a vote for that item.
// Under full replication every degree equals the site count and every
// site answers for every item, so this reduces exactly to the old
// global-majority check.
func (s *Site) quorumRead(t txn.Txn, readSet []core.ItemID, tr uint64) ([]core.ItemVersion, bool) {
	if len(readSet) == 0 {
		return nil, true
	}
	rep := s.replicaMap()

	best := make(map[core.ItemID]core.ItemVersion, len(readSet))
	votes := make(map[core.ItemID]int, len(readSet))
	need := make(map[core.ItemID]int, len(readSet))
	perTarget := map[core.SiteID][]core.ItemID{}
	var targets []core.SiteID
	remote := false
	for _, item := range readSet {
		need[item] = s.pol.ReadQuorum(rep.Degree(item))
		if rep.IsHost(item, s.cfg.ID) {
			iv, err := s.store.Get(item)
			if err != nil {
				return nil, false
			}
			best[item] = iv
			votes[item] = 1
		}
		if votes[item] < need[item] {
			remote = true
		}
		for i := 0; i < s.cfg.Sites; i++ {
			id := core.SiteID(i)
			if id == s.cfg.ID || !rep.IsHost(item, id) {
				continue
			}
			if _, ok := perTarget[id]; !ok {
				targets = append(targets, id)
			}
			perTarget[id] = append(perTarget[id], item)
		}
	}

	if remote && len(targets) > 0 {
		results := s.caller.MulticastT(tr, transport.Outcalls(targets, func(target core.SiteID) msg.Body {
			return &msg.ReadReq{Txn: t.ID, Items: perTarget[target]}
		}))
		for _, r := range results {
			if r.Err != nil {
				continue
			}
			resp, wellTyped := r.Reply.Body.(*msg.ReadResp)
			if !wellTyped || !resp.OK {
				continue
			}
			for _, iv := range resp.Items {
				if _, asked := need[iv.Item]; !asked {
					continue
				}
				votes[iv.Item]++
				if cur, ok := best[iv.Item]; !ok || iv.Version > cur.Version {
					best[iv.Item] = iv
				}
			}
		}
	}
	for _, item := range readSet {
		if votes[item] < need[item] {
			return nil, false
		}
	}

	// Emit in operation order, as TxnResult documents.
	var out []core.ItemVersion
	for _, op := range t.Ops {
		if op.Kind == core.OpRead {
			out = append(out, best[op.Item])
		}
	}
	return out, true
}

// sendAbort tells the given participants to discard their staged copy
// updates. A participant whose ack was lost staged its share all the same,
// so an abort goes to the silent participants too (Appendix A.1 aborts at
// every participating site); a site that never staged ignores it.
func (s *Site) sendAbort(participants []core.SiteID, id core.TxnID, tr uint64) {
	for _, target := range participants {
		s.caller.SendT(tr, target, &msg.Abort{Txn: id})
	}
}

// perceivedUp filters ids to those the given vector believes operational —
// only their silence is news worth a type-2 announcement.
func (s *Site) perceivedUp(vec core.SessionVector, ids []core.SiteID) []core.SiteID {
	var out []core.SiteID
	for _, id := range ids {
		if vec.IsUp(id) {
			out = append(out, id)
		}
	}
	return out
}

// txnQueue is the FIFO of client transactions between the receive loop and
// the coordinator workers. push never blocks, so the loop stays free to
// route replies and serve other sites while every worker is busy; pop
// blocks until a transaction arrives or the queue closes. Transactions
// still queued at close are dropped: the site is terminating, and a
// terminating site answers nothing.
type txnQueue struct {
	mu     sync.Mutex
	cond   sync.Cond
	items  []*msg.Envelope
	head   int
	closed bool
}

func newTxnQueue() *txnQueue {
	q := &txnQueue{}
	q.cond.L = &q.mu
	return q
}

// push appends env; it is dropped if the queue is closed.
func (q *txnQueue) push(env *msg.Envelope) {
	q.mu.Lock()
	if !q.closed {
		if q.head > 0 && len(q.items) == cap(q.items) {
			// About to grow: fold the popped prefix away first, so a
			// queue that never quite drains does not grow without bound.
			n := copy(q.items, q.items[q.head:])
			clear(q.items[n:])
			q.items, q.head = q.items[:n], 0
		}
		q.items = append(q.items, env)
		q.cond.Signal()
	}
	q.mu.Unlock()
}

// pop removes the oldest transaction, or reports false once the queue is
// closed.
func (q *txnQueue) pop() (*msg.Envelope, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return nil, false
	}
	env := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return env, true
}

// close wakes every worker to exit.
func (q *txnQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
