package site

import (
	"errors"
	"fmt"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
	"minraid/internal/trace"
	"minraid/internal/transport"
)

// failNow simulates a site failure: the site stops participating in any
// further system actions (§1.2). In-flight calls are cancelled so a
// coordination in progress dies silently; staged phase-one writes are
// discarded (the process's volatile 2PC state is gone); the database copy
// itself survives in "virtual memory", exactly as in mini-RAID, and will
// simply miss updates until recovery.
func (s *Site) failNow() {
	s.mu.Lock()
	if s.state.get() == core.StatusDown {
		s.mu.Unlock()
		return
	}
	s.state.set(core.StatusDown)
	s.vec.MarkDown(s.cfg.ID)
	for id, st := range s.staged {
		st.finish(id)
	}
	s.staged = make(map[core.TxnID]*stagedTxn)
	s.batchArmed = false
	if lm := s.locks.Load(); lm != nil {
		// A crashed process loses its lock table: fail every waiter and
		// start the next session with a fresh manager.
		lm.Close()
		s.locks.Store(newLockManager(s.cfg))
	}
	s.mu.Unlock()
	if s.epoch != nil {
		// The batch is volatile 2PC state: wake its waiters with
		// AbortSiteDown (they stay silent — the site is down) and let the
		// participants' decision timers discard their staged halves.
		s.epoch.drain()
	}
	s.caller.CancelAll()
}

// versionVector reads the per-item copy versions from the local store —
// the evidence backing a fail-lock exchange: commit-time maintenance
// rewrites an item's lock word together with its copy, so per item the
// side holding the newer copy holds the authoritative word.
func (s *Site) versionVector() []uint64 {
	out := make([]uint64, s.cfg.Items)
	if s.cfg.Items == 0 {
		return out
	}
	dump, err := s.store.Dump(0, core.ItemID(s.cfg.Items-1))
	if err != nil {
		return out
	}
	for _, iv := range dump {
		if int(iv.Item) < len(out) {
			out[iv.Item] = uint64(iv.Version)
		}
	}
	return out
}

// recoverSite runs the recovery procedure: bump the session number, run a
// type-1 control transaction (announce the new session to every site,
// install the session vector and fail-locks returned by an operational
// site), and become operational. It returns false if recovery is blocked
// because no operational site could supply the vector and fail-locks —
// the situation §3.2 calls "a site's recovery being blocked by the failure
// of other sites".
func (s *Site) recoverSite(tr uint64) bool {
	start := time.Now()
	s.mu.Lock()
	if s.state.get() == core.StatusUp {
		s.mu.Unlock()
		return true
	}
	if s.state.get() != core.StatusDown {
		s.mu.Unlock()
		return false
	}
	s.state.set(core.StatusRecovering)
	s.session++
	session := s.session
	s.stats.ControlType1++
	// The table survived the failure (a failed site keeps its database,
	// §1.2) and may hold the only record of staleness elsewhere: writes
	// this site committed while it believed the others down marked their
	// copies stale in this table alone. Snapshot it with the copy
	// versions backing it; the merge below keeps its words for items
	// where this site is provably ahead, and the lock-sync fan-out at
	// the end re-publishes them.
	ownLocks := s.flocks.Snapshot()
	ownVers := s.versionVector()
	// The announcement goes to every other site; sites that are down
	// simply never answer. (A stale vector cannot be trusted to say who
	// is operational — that is what the announcement finds out.)
	var targets []core.SiteID
	for i := 0; i < s.cfg.Sites; i++ {
		if id := core.SiteID(i); id != s.cfg.ID {
			targets = append(targets, id)
		}
	}
	s.mu.Unlock()

	// The bumped session must be durable before it is announced: a crash
	// after the announcement but before the persist would let the next
	// incarnation re-announce an old session, which survivors (and any
	// stale failure announcement still in flight) would veto or, worse,
	// believe. An unpersistable session keeps the site down.
	if s.cfg.PersistSession != nil {
		if err := s.cfg.PersistSession(session); err != nil {
			s.mu.Lock()
			if s.state.get() == core.StatusRecovering {
				s.state.set(core.StatusDown)
				s.vec.MarkDown(s.cfg.ID)
			}
			s.mu.Unlock()
			return false
		}
	}

	if len(targets) == 0 {
		// Single-site system: trivially operational.
		s.mu.Lock()
		s.vec.MarkUp(s.cfg.ID, session)
		s.state.set(core.StatusUp)
		s.mu.Unlock()
		s.reg.Observe(TimerCtrl1Recovering, time.Since(start))
		s.emit(tr, trace.PhaseCtrl1, "recovering", start)
		return true
	}

	replies := s.caller.MulticallT(tr, targets, func(core.SiteID) msg.Body {
		return &msg.CtrlRecover{Site: s.cfg.ID, Session: session}
	})

	s.mu.Lock()
	if s.state.get() != core.StatusRecovering {
		// A failure order arrived while the announcement was in flight.
		s.mu.Unlock()
		return false
	}
	// "obtains a copy of the session vector and fail-locks from an
	// operational site for the recovering site" (§1.1) — but merged
	// per item over the surviving local table and over every donor, not
	// installed from whichever ack happened to arrive first: donors'
	// tables can diverge after false suspicions, and replacing the whole
	// table would erase any staleness only a subset of them (or only
	// this site, pre-failure) knew about. Per item the newest copy
	// version carries the authoritative lock word; on a version tie a
	// donor's current word beats this site's pre-failure word (which may
	// hold bits cleared while this site was down), and tied donors are
	// OR-ed (their divergence is transient; keeping a bit is the safe
	// direction).
	installed := false
	words := make([]uint64, len(ownLocks))
	vers := make([]uint64, len(ownVers))
	copy(words, ownLocks)
	copy(vers, ownVers)
	fromDonor := make([]bool, len(words))
	for _, id := range targets {
		reply, ok := replies[id]
		if !ok {
			continue
		}
		ack, wellTyped := reply.Body.(*msg.CtrlRecoverAck)
		if !wellTyped {
			// A garbled reply is no reply: the site cannot serve as donor
			// and, below, is treated like a site that never answered.
			delete(replies, id)
			continue
		}
		if !ack.OK {
			continue
		}
		if len(ack.FailLocks) != len(words) || len(ack.Versions) != len(words) {
			delete(replies, id)
			continue
		}
		for i := range words {
			switch {
			case ack.Versions[i] > vers[i]:
				words[i], vers[i] = ack.FailLocks[i], ack.Versions[i]
				fromDonor[i] = true
			case ack.Versions[i] == vers[i] && fromDonor[i]:
				words[i] |= ack.FailLocks[i]
			case ack.Versions[i] == vers[i]:
				words[i] = ack.FailLocks[i]
				fromDonor[i] = true
			}
		}
		installed = true
		s.vec.Merge(core.VectorFromRecords(ack.Vector))
	}
	if installed {
		if err := s.flocks.Install(words); err != nil {
			installed = false
		}
	}
	// Items whose word survived every donor (no donor copy at or above
	// this site's version): staleness only this site knows about, which
	// the survivors must be told — their tables have no bit for copies
	// this site outran while writing alone.
	needSync := false
	for i := range words {
		if !fromDonor[i] && words[i] != 0 {
			needSync = true
			break
		}
	}
	if !installed {
		// Recovery blocked: without fail-locks from an operational site
		// the out-of-date items cannot be identified. Back to down.
		s.state.set(core.StatusDown)
		s.vec.MarkDown(s.cfg.ID)
		s.mu.Unlock()
		return false
	}
	// Sites that did not answer the announcement are down. Collect them
	// for a type-2 announcement once this site is operational: marking
	// them down only locally would leave the survivors' nominal vectors
	// divergent (they still carry the silent sites as up) until their own
	// ack-timeout detection fires on some later transaction.
	var silent []core.SiteID
	for _, id := range targets {
		if _, ok := replies[id]; !ok && s.vec.IsUp(id) {
			silent = append(silent, id)
		}
	}
	s.vec.MarkUp(s.cfg.ID, session)
	s.state.set(core.StatusUp)
	instant := s.cfg.InstantRecovery
	armBatch := !instant && s.cfg.BatchCopierThreshold > 0
	if armBatch {
		s.batchArmed = true
	}
	stale := len(s.flocks.ItemsLockedFor(s.cfg.ID))
	s.mu.Unlock()
	s.reg.Observe(TimerCtrl1Recovering, time.Since(start))
	kind := "recovering"
	if instant {
		// REDO-only instant recovery: the site is already serving — clean
		// items locally, fail-locked items via demand copiers — and the
		// stale set just measured is the backlog the background scrubber
		// will heal.
		kind = "recovering-instant"
		s.reg.Add(CounterRecoveryStale, uint64(stale))
	}
	s.emit(tr, trace.PhaseCtrl1, kind, start)

	// announceFailure marks the silent sites down locally and tells every
	// survivor, so nominal vectors converge on the recovery's evidence
	// instead of waiting for each survivor's own timeout.
	if len(silent) > 0 {
		s.announceFailure(silent, tr)
	}
	if needSync {
		s.fanoutLockSync(words, vers, tr)
	}
	if armBatch {
		s.maybeBatchRefresh(tr)
	}
	return true
}

// fanoutLockSync publishes the recovered site's post-merge fail-lock table
// to every operational site. Needed when the merge kept words no donor
// could vouch for — staleness recorded while this site committed writes
// alone — since the survivors' tables carry no bit for those copies and
// replacing this site's table on its next recovery would erase the record
// for good. Receivers adopt a word only where the shipped copy version is
// strictly ahead of their own, so legitimately cleared bits never travel
// backwards. Survivors that do not answer are announced failed, exactly as
// for a lost clear fan-out: an unreachable table would otherwise silently
// miss the staleness record.
func (s *Site) fanoutLockSync(words, vers []uint64, tr uint64) {
	s.mu.Lock()
	if s.state.get() != core.StatusUp {
		s.mu.Unlock()
		return
	}
	targets := s.vec.Operational(s.cfg.ID)
	s.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	start := time.Now()
	results := s.caller.MulticastT(tr, transport.Outcalls(targets, func(core.SiteID) msg.Body {
		return &msg.CtrlLockSync{Site: s.cfg.ID, FailLocks: words, Versions: vers}
	}))
	var lost []core.SiteID
	for _, r := range results {
		if errors.Is(r.Err, transport.ErrCancelled) {
			return // this site failed mid-fan-out: die silently
		}
		if r.Err != nil {
			lost = append(lost, r.To)
		}
	}
	s.emit(tr, trace.PhaseCtrl1, "lock-sync", start)
	if len(lost) > 0 {
		s.announceFailure(lost, tr)
	}
}

// announceFailure runs a type-2 control transaction for the given sites:
// mark them down locally, then announce to each remaining operational site
// so it updates its nominal session vector (§1.1).
func (s *Site) announceFailure(failed []core.SiteID, tr uint64) {
	if len(failed) == 0 {
		return
	}
	s.mu.Lock()
	var fails []msg.SiteFail
	for _, id := range failed {
		if id == s.cfg.ID || int(id) >= s.vec.Len() || !s.vec.IsUp(id) {
			continue
		}
		fails = append(fails, msg.SiteFail{Site: id, Session: s.vec.Session(id)})
		s.vec.MarkDown(id)
	}
	if len(fails) == 0 {
		s.mu.Unlock()
		return
	}
	s.stats.ControlType2++
	targets := s.vec.Operational(s.cfg.ID)
	s.mu.Unlock()

	// One parallel multicast under a single shared ack deadline: a target
	// that is itself dead costs the announcement ~1 timeout total, not one
	// timeout per dead target. A target that cannot be reached is left for
	// the next transaction that needs it to detect — announcing it here
	// would recurse into another type-2 for no benefit; a target that
	// answered is alive and must never be announced.
	if len(targets) > 0 {
		start := time.Now()
		results := s.caller.MulticastT(tr, transport.Outcalls(targets, func(core.SiteID) msg.Body {
			return &msg.CtrlFail{Failed: fails}
		}))
		for _, r := range results {
			if r.Err != nil {
				continue
			}
			// The paper's 68 ms covers "the sending of the failure
			// announcement to a particular site and the updating of the
			// session vector at that site" — per-target round trip.
			s.reg.Observe(TimerCtrl2, r.RTT)
			s.emit(tr, trace.PhaseCtrl2, "announce", start)
		}
		s.reg.Observe(TimerCtrl2Fanout, time.Since(start))
	}
	if s.cfg.EnableType3 {
		s.maybeReplicate0(tr)
	}
}

// maybeBatchRefresh implements step two of the paper's proposed two-step
// recovery (§3.2): once the fraction of items fail-locked for this site is
// at or below the threshold, refresh every remaining out-of-date copy in
// batch with copier transactions, instead of waiting for reads to demand
// them. Runs under the transaction gate so it serializes with database
// transactions.
func (s *Site) maybeBatchRefresh(tr uint64) {
	s.mu.Lock()
	if !s.batchArmed || s.state.get() != core.StatusUp {
		s.mu.Unlock()
		return
	}
	locked := s.flocks.ItemsLockedFor(s.cfg.ID)
	frac := float64(len(locked)) / float64(s.cfg.Items)
	if len(locked) == 0 {
		s.batchArmed = false
		s.mu.Unlock()
		return
	}
	if frac > s.cfg.BatchCopierThreshold {
		s.mu.Unlock()
		return // step one: stay demand-driven until below threshold
	}
	s.batchArmed = false
	s.mu.Unlock()

	s.txnGate <- struct{}{}
	defer func() { <-s.txnGate }()
	start := time.Now()
	// Re-read under the gate: commits may have refreshed items meanwhile.
	s.mu.Lock()
	locked = s.flocks.ItemsLockedFor(s.cfg.ID)
	s.mu.Unlock()
	if len(locked) == 0 {
		return
	}
	// The batch copiers count themselves (inside runCopiers, before each
	// call) so the counter is never behind the fail-lock drain.
	s.runCopiers(locked, core.NoTxn, true, tr)
	s.reg.Observe(TimerBatchRefresh, time.Since(start))
}

// checkBatchTrigger re-evaluates the two-step threshold; called after
// commits that may have dropped the fail-locked fraction.
func (s *Site) checkBatchTrigger() {
	s.mu.Lock()
	armed := s.batchArmed
	s.mu.Unlock()
	if armed {
		s.maybeBatchRefresh(0)
	}
}

// maybeReplicate runs the paper's proposed type-3 control transaction from
// a spawned goroutine.
func (s *Site) maybeReplicate(tr uint64) {
	defer s.wg.Done()
	s.maybeReplicate0(tr)
}

// maybeReplicate0 scans for items whose only up-to-date copy among
// operational sites is this site's, and pushes a backup copy of each to
// another operational site (§3.2: "a site having the last up-to-date copy
// of a data item would create a copy on a back-up site"). In the fully
// replicated database the "back-up site" is an operational site whose own
// copy is fail-locked; installing the fresh copy clears that fail-lock,
// and the special clear transaction propagates the news.
//
// The push is chunked to Type3Batch items per CtrlReplicate, and the
// backup site is re-chosen per chunk (rotating over every operational
// candidate), so a large endangered set neither travels in one unbounded
// message nor lands entirely on the one site that happened to be stale
// for the first endangered item. A chunk whose backup fails just moves on
// to the next chunk and candidate.
func (s *Site) maybeReplicate0(tr uint64) {
	s.mu.Lock()
	if s.state.get() != core.StatusUp {
		s.mu.Unlock()
		return
	}
	ups := s.vec.Operational()
	if len(ups) < 2 {
		s.mu.Unlock()
		return // nobody to back up onto
	}
	// endangered: items where this site is the sole up-to-date holder.
	// For such an item every OTHER operational site's copy is stale, so
	// the backup candidates — stale operational sites — are the same for
	// every endangered item: all operational sites but this one.
	var endangered []core.ItemVersion
	var candidates []core.SiteID
	for _, id := range ups {
		if id != s.cfg.ID {
			candidates = append(candidates, id)
		}
	}
	for i := 0; i < s.cfg.Items; i++ {
		item := core.ItemID(i)
		if s.flocks.IsSet(item, s.cfg.ID) {
			continue // our own copy is stale
		}
		fresh := 0
		staleUpFound := false
		for _, id := range ups {
			if !s.flocks.IsSet(item, id) {
				fresh++
			} else if id != s.cfg.ID {
				staleUpFound = true
			}
		}
		if fresh == 1 && staleUpFound {
			iv, err := s.store.Get(item)
			if err != nil {
				continue
			}
			endangered = append(endangered, iv)
		}
	}
	s.mu.Unlock()
	if len(endangered) == 0 || len(candidates) == 0 {
		return
	}

	start := time.Now()
	batch := s.cfg.Type3Batch
	var lostAll []core.SiteID
	lostSeen := make(map[core.SiteID]bool)
	chunks := 0
	for lo := 0; lo < len(endangered); lo += batch {
		hi := lo + batch
		if hi > len(endangered) {
			hi = len(endangered)
		}
		chunk := endangered[lo:hi]
		backup := candidates[chunks%len(candidates)]
		chunks++
		s.mu.Lock()
		alive := s.vec.IsUp(backup)
		s.mu.Unlock()
		if !alive {
			continue // failed since the scan; next chunk rotates onward
		}
		reply, err := s.caller.CallT(tr, backup, &msg.CtrlReplicate{Items: chunk})
		if err != nil {
			continue
		}
		ack, wellTyped := reply.Body.(*msg.CtrlReplicateAck)
		if !wellTyped || !ack.OK {
			continue
		}
		s.mu.Lock()
		s.stats.ControlType3++
		items := make([]core.ItemID, 0, len(chunk))
		for _, iv := range chunk {
			if s.flocks.IsSet(iv.Item, backup) {
				s.flocks.Clear(iv.Item, backup)
				s.stats.FailLocksCleared++
			}
			items = append(items, iv.Item)
		}
		targets := s.vec.Operational(s.cfg.ID, backup)
		s.mu.Unlock()
		// Propagate the backup site's refreshed status. Targets whose ack
		// never arrives are announced like any other clear fan-out loss —
		// their tables would otherwise keep stale bits for the backup site.
		lost, cancelled := s.fanoutClears(targets, &msg.ClearFailLocks{Site: backup, Items: items}, tr)
		if cancelled {
			return // local failure mid-push: stop silently
		}
		for _, id := range lost {
			if !lostSeen[id] {
				lostSeen[id] = true
				lostAll = append(lostAll, id)
			}
		}
	}
	s.reg.Observe(TimerCtrl3, time.Since(start))
	s.emit(tr, trace.PhaseCtrl3, fmt.Sprintf("backup chunks=%d", chunks), start)
	if len(lostAll) > 0 {
		s.announceFailure(lostAll, tr)
	}
}
