package msg

import (
	"minraid/internal/core"
	"minraid/internal/wire"
)

// ClientTxn asks a coordinator to process one database transaction on
// behalf of the managing site ("a database transaction was generated by the
// managing site", §1.2).
type ClientTxn struct {
	Txn core.TxnID
	Ops []core.Op
}

// Kind implements Body.
func (*ClientTxn) Kind() Kind { return KindClientTxn }

func (m *ClientTxn) encode(enc *wire.Encoder) {
	enc.Uvarint(uint64(m.Txn))
	encodeOps(enc, m.Ops)
}

func (m *ClientTxn) decode(dec *wire.Decoder) {
	m.Txn = core.TxnID(dec.Uvarint())
	m.Ops = decodeOps(dec)
}

// TxnResult reports a transaction's outcome to the managing site, together
// with the measurements the experiment harness records per transaction.
type TxnResult struct {
	Txn         core.TxnID
	Committed   bool
	AbortReason string
	// Reads carries the values observed by the transaction's read
	// operations, in operation order. Each is the committed copy from
	// before the transaction (Appendix A.1 reads before it writes), never
	// the transaction's own write.
	Reads []core.ItemVersion
	// Copiers is the number of copier transactions the coordinator ran
	// for this database transaction.
	Copiers uint32
	// ElapsedNanos is the coordinator-measured transaction time: "the
	// elapsed time between the initial reception of the database
	// transaction and the completion of the two phase commit protocol"
	// (§2.2.1).
	ElapsedNanos uint64
}

// Kind implements Body.
func (*TxnResult) Kind() Kind { return KindTxnResult }

func (m *TxnResult) encode(enc *wire.Encoder) {
	enc.Uvarint(uint64(m.Txn))
	enc.Bool(m.Committed)
	enc.String(m.AbortReason)
	encodeItemVersions(enc, m.Reads)
	enc.Uvarint(uint64(m.Copiers))
	enc.Uvarint(m.ElapsedNanos)
}

func (m *TxnResult) decode(dec *wire.Decoder) {
	m.Txn = core.TxnID(dec.Uvarint())
	m.Committed = dec.Bool()
	m.AbortReason = dec.String()
	m.Reads = decodeItemVersions(dec)
	m.Copiers = uint32(dec.Uvarint())
	m.ElapsedNanos = dec.Uvarint()
}

// Prepare is the phase-one copy update of the two-phase commit protocol:
// "issue copy update for written items to every operational site"
// (Appendix A.1). It carries the coordinator's nominal session vector so a
// participant can detect that the coordinator's view of it is stale.
//
// Under partial replication, Writes carries only the copies the receiving
// site hosts, while MaintOnly lists the transaction's other written items:
// the receiver performs commit-time fail-lock maintenance for them without
// storing data, keeping fail-lock tables fully replicated ("fail-locks
// should be fully replicated to increase fault tolerance", §1.1). Under
// full replication MaintOnly is empty.
type Prepare struct {
	Txn       core.TxnID
	Vector    []core.SiteInfo
	Writes    []core.ItemVersion
	MaintOnly []core.ItemID
}

// Kind implements Body.
func (*Prepare) Kind() Kind { return KindPrepare }

func (m *Prepare) encode(enc *wire.Encoder) {
	enc.Uvarint(uint64(m.Txn))
	encodeVector(enc, m.Vector)
	encodeItemVersions(enc, m.Writes)
	encodeItems(enc, m.MaintOnly)
}

func (m *Prepare) decode(dec *wire.Decoder) {
	m.Txn = core.TxnID(dec.Uvarint())
	m.Vector = decodeVector(dec)
	m.Writes = decodeItemVersions(dec)
	m.MaintOnly = decodeItems(dec)
}

// PrepareAck is a participant's phase-one vote.
//
// Versions is used only in concurrent mode: an OK vote lists the
// participant's committed version of each staged write, in the prepare's
// write order, read under the exclusive locks it holds. The coordinator
// stamps each write above the highest copy, its own included: its own copy
// may be a recovered site's stale one.
type PrepareAck struct {
	Txn      core.TxnID
	OK       bool
	Reason   string // set when OK is false
	Versions []uint64
}

// Kind implements Body.
func (*PrepareAck) Kind() Kind { return KindPrepareAck }

func (m *PrepareAck) encode(enc *wire.Encoder) {
	enc.Uvarint(uint64(m.Txn))
	enc.Bool(m.OK)
	enc.String(m.Reason)
	enc.Uint64s(m.Versions)
}

func (m *PrepareAck) decode(dec *wire.Decoder) {
	m.Txn = core.TxnID(dec.Uvarint())
	m.OK = dec.Bool()
	m.Reason = dec.String()
	m.Versions = dec.Uint64s()
}

// Commit is the phase-two commit indication.
//
// Versions is used only in concurrent mode (the full-RAID extension): the
// coordinator assigns each written item's final version number at commit
// time — after every copy is exclusively locked — and ships it here; the
// participant overlays these versions on its staged values. Under the
// paper's serial processing Versions is empty and the staged versions
// (the transaction ID) stand.
type Commit struct {
	Txn      core.TxnID
	Versions []core.ItemVersion // item+version only; values travel in Prepare
}

// Kind implements Body.
func (*Commit) Kind() Kind { return KindCommit }

func (m *Commit) encode(enc *wire.Encoder) {
	enc.Uvarint(uint64(m.Txn))
	encodeItemVersions(enc, m.Versions)
}

func (m *Commit) decode(dec *wire.Decoder) {
	m.Txn = core.TxnID(dec.Uvarint())
	m.Versions = decodeItemVersions(dec)
}

// CommitAck acknowledges a commit indication.
type CommitAck struct {
	Txn core.TxnID
}

// Kind implements Body.
func (*CommitAck) Kind() Kind { return KindCommitAck }

func (m *CommitAck) encode(enc *wire.Encoder) { enc.Uvarint(uint64(m.Txn)) }
func (m *CommitAck) decode(dec *wire.Decoder) { m.Txn = core.TxnID(dec.Uvarint()) }

// CommitEntry is one transaction's commit indication inside a batch.
type CommitEntry struct {
	Txn      core.TxnID
	Versions []core.ItemVersion // item+version only; values travel in Prepare
}

// CommitBatch commits every listed staged transaction at a participant
// in one message — the epoch-batched phase two. Entries apply in slice
// order; each is exactly what a per-transaction Commit would carry.
type CommitBatch struct {
	Txns []CommitEntry
}

// Kind implements Body.
func (*CommitBatch) Kind() Kind { return KindCommitBatch }

func (m *CommitBatch) encode(enc *wire.Encoder) {
	enc.Uvarint(uint64(len(m.Txns)))
	for _, e := range m.Txns {
		enc.Uvarint(uint64(e.Txn))
		encodeItemVersions(enc, e.Versions)
	}
}

func (m *CommitBatch) decode(dec *wire.Decoder) {
	n := dec.SliceLen()
	if dec.Err() != nil || n == 0 {
		return
	}
	m.Txns = make([]CommitEntry, 0, n)
	for i := 0; i < n; i++ {
		e := CommitEntry{
			Txn:      core.TxnID(dec.Uvarint()),
			Versions: decodeItemVersions(dec),
		}
		if dec.Err() != nil {
			return
		}
		m.Txns = append(m.Txns, e)
	}
}

// CommitBatchAck acknowledges a whole commit batch.
type CommitBatchAck struct {
	// Applied counts the entries the participant actually installed
	// (entries it had no staging for are counted too — commit of an
	// unknown txn is idempotent silence, as with Commit).
	Applied uint32
}

// Kind implements Body.
func (*CommitBatchAck) Kind() Kind { return KindCommitBatchAck }

func (m *CommitBatchAck) encode(enc *wire.Encoder) { enc.Uvarint(uint64(m.Applied)) }
func (m *CommitBatchAck) decode(dec *wire.Decoder) { m.Applied = uint32(dec.Uvarint()) }

// Abort tells participants to discard the copy updates of a transaction.
type Abort struct {
	Txn core.TxnID
}

// Kind implements Body.
func (*Abort) Kind() Kind { return KindAbort }

func (m *Abort) encode(enc *wire.Encoder) { enc.Uvarint(uint64(m.Txn)) }
func (m *Abort) decode(dec *wire.Decoder) { m.Txn = core.TxnID(dec.Uvarint()) }

// CopyRequest is a copier transaction's read half: a recovering coordinator
// asks an operational site holding up-to-date copies for the listed items
// ("a copier transaction causes a read from a good data item on another
// operational site and a write to the data item on the recovering site",
// §1.1).
type CopyRequest struct {
	Txn   core.TxnID
	Items []core.ItemID
}

// Kind implements Body.
func (*CopyRequest) Kind() Kind { return KindCopyRequest }

func (m *CopyRequest) encode(enc *wire.Encoder) {
	enc.Uvarint(uint64(m.Txn))
	encodeItems(enc, m.Items)
}

func (m *CopyRequest) decode(dec *wire.Decoder) {
	m.Txn = core.TxnID(dec.Uvarint())
	m.Items = decodeItems(dec)
}

// CopyResponse returns the requested up-to-date copies, or a refusal if the
// donor's own copy of some item is fail-locked (the donor is itself out of
// date for that item).
type CopyResponse struct {
	Txn    core.TxnID
	OK     bool
	Reason string
	Items  []core.ItemVersion
}

// Kind implements Body.
func (*CopyResponse) Kind() Kind { return KindCopyResponse }

func (m *CopyResponse) encode(enc *wire.Encoder) {
	enc.Uvarint(uint64(m.Txn))
	enc.Bool(m.OK)
	enc.String(m.Reason)
	encodeItemVersions(enc, m.Items)
}

func (m *CopyResponse) decode(dec *wire.Decoder) {
	m.Txn = core.TxnID(dec.Uvarint())
	m.OK = dec.Bool()
	m.Reason = dec.String()
	m.Items = decodeItemVersions(dec)
}

// ClearFailLocks is the special transaction "to allow a coordinating site
// to inform other sites of the fail-lock bits cleared by copier
// transactions" (§1.2). Site is the site whose bits are to be cleared (the
// recovering coordinator), Items the refreshed data items.
//
// With Set true the same message propagates fail-lock *sets* instead: a
// coordinator that loses a participant between phase one and phase two
// cannot know whether that site applied the commit, so it conservatively
// marks the transaction's written items stale for it everywhere (Appendix
// A.1 updates fail-locks after the type-2 announcement for this reason).
type ClearFailLocks struct {
	Txn   core.TxnID
	Site  core.SiteID
	Items []core.ItemID
	Set   bool
}

// Kind implements Body.
func (*ClearFailLocks) Kind() Kind { return KindClearFailLocks }

func (m *ClearFailLocks) encode(enc *wire.Encoder) {
	enc.Uvarint(uint64(m.Txn))
	enc.Uint8(uint8(m.Site))
	encodeItems(enc, m.Items)
	enc.Bool(m.Set)
}

func (m *ClearFailLocks) decode(dec *wire.Decoder) {
	m.Txn = core.TxnID(dec.Uvarint())
	m.Site = core.SiteID(dec.Uint8())
	m.Items = decodeItems(dec)
	m.Set = dec.Bool()
}

// ClearFailLocksAck acknowledges a ClearFailLocks.
type ClearFailLocksAck struct {
	Txn core.TxnID
}

// Kind implements Body.
func (*ClearFailLocksAck) Kind() Kind { return KindClearFailLocksAck }

func (m *ClearFailLocksAck) encode(enc *wire.Encoder) { enc.Uvarint(uint64(m.Txn)) }
func (m *ClearFailLocksAck) decode(dec *wire.Decoder) { m.Txn = core.TxnID(dec.Uvarint()) }

// CtrlRecover is a control transaction of type 1: "issued by a recovering
// site to announce that it is preparing to become operational" (§1.1). It
// carries the recovering site's new session number.
type CtrlRecover struct {
	Site    core.SiteID
	Session core.SessionNum
}

// Kind implements Body.
func (*CtrlRecover) Kind() Kind { return KindCtrlRecover }

func (m *CtrlRecover) encode(enc *wire.Encoder) {
	enc.Uint8(uint8(m.Site))
	enc.Uvarint(uint64(m.Session))
}

func (m *CtrlRecover) decode(dec *wire.Decoder) {
	m.Site = core.SiteID(dec.Uint8())
	m.Session = core.SessionNum(dec.Uvarint())
}

// CtrlRecoverAck completes a type-1 control transaction at the recovering
// site: it "obtains a copy of the session vector and fail-locks from an
// operational site for the recovering site" (§1.1).
type CtrlRecoverAck struct {
	OK        bool
	Reason    string
	Vector    []core.SiteInfo
	FailLocks []uint64 // FailLockTable snapshot, one bitmap per item
	Versions  []uint64 // per-item copy versions backing the snapshot
}

// Kind implements Body.
func (*CtrlRecoverAck) Kind() Kind { return KindCtrlRecoverAck }

func (m *CtrlRecoverAck) encode(enc *wire.Encoder) {
	enc.Bool(m.OK)
	enc.String(m.Reason)
	encodeVector(enc, m.Vector)
	enc.Uint64s(m.FailLocks)
	enc.Uint64s(m.Versions)
}

func (m *CtrlRecoverAck) decode(dec *wire.Decoder) {
	m.OK = dec.Bool()
	m.Reason = dec.String()
	m.Vector = decodeVector(dec)
	m.FailLocks = dec.Uint64s()
	m.Versions = dec.Uint64s()
}

// SiteFail names one failed site together with the session in which the
// failure was observed, so that a stale failure announcement cannot take
// down a site that has since recovered into a newer session.
type SiteFail struct {
	Site    core.SiteID
	Session core.SessionNum
}

// CtrlFail is a control transaction of type 2: "issued by a site to
// announce that it has determined that one or more sites which were
// operational have failed" (§1.1).
type CtrlFail struct {
	Failed []SiteFail
}

// Kind implements Body.
func (*CtrlFail) Kind() Kind { return KindCtrlFail }

func (m *CtrlFail) encode(enc *wire.Encoder) {
	enc.Uvarint(uint64(len(m.Failed)))
	for _, f := range m.Failed {
		enc.Uint8(uint8(f.Site))
		enc.Uvarint(uint64(f.Session))
	}
}

func (m *CtrlFail) decode(dec *wire.Decoder) {
	n := dec.SliceLen()
	if dec.Err() != nil || n == 0 {
		return
	}
	m.Failed = make([]SiteFail, 0, n)
	for i := 0; i < n; i++ {
		m.Failed = append(m.Failed, SiteFail{
			Site:    core.SiteID(dec.Uint8()),
			Session: core.SessionNum(dec.Uvarint()),
		})
	}
}

// CtrlFailAck acknowledges a type-2 control transaction.
type CtrlFailAck struct{}

// Kind implements Body.
func (*CtrlFailAck) Kind() Kind { return KindCtrlFailAck }

func (m *CtrlFailAck) encode(*wire.Encoder) {}
func (m *CtrlFailAck) decode(*wire.Decoder) {}

// CtrlReplicate is the paper's proposed control transaction of type 3: "a
// site having the last up-to-date copy of a data item would create a copy
// on a back-up site" (§3.2). The receiver installs the copies and clears
// its own fail-locks for them.
type CtrlReplicate struct {
	Items []core.ItemVersion
}

// Kind implements Body.
func (*CtrlReplicate) Kind() Kind { return KindCtrlReplicate }

func (m *CtrlReplicate) encode(enc *wire.Encoder) { encodeItemVersions(enc, m.Items) }
func (m *CtrlReplicate) decode(dec *wire.Decoder) { m.Items = decodeItemVersions(dec) }

// CtrlReplicateAck acknowledges a type-3 control transaction.
type CtrlReplicateAck struct {
	OK bool
}

// Kind implements Body.
func (*CtrlReplicateAck) Kind() Kind { return KindCtrlReplicateAck }

func (m *CtrlReplicateAck) encode(enc *wire.Encoder) { enc.Bool(m.OK) }
func (m *CtrlReplicateAck) decode(dec *wire.Decoder) { m.OK = dec.Bool() }

// CtrlLockSync completes a type-1 control transaction from the recovered
// site's side: when its merge kept words no donor reached — staleness
// recorded while it committed writes believing the other sites down — it
// re-publishes its per-item lock words with the top copy versions its
// merge saw. A receiver folds each (version, word) into its own word by
// the staleness rule (core.Staleness). Without this, a recovery would
// erase the system's only record that those copies are stale.
type CtrlLockSync struct {
	Site      core.SiteID
	FailLocks []uint64
	Versions  []uint64
}

// Kind implements Body.
func (*CtrlLockSync) Kind() Kind { return KindCtrlLockSync }

func (m *CtrlLockSync) encode(enc *wire.Encoder) {
	enc.Uint8(uint8(m.Site))
	enc.Uint64s(m.FailLocks)
	enc.Uint64s(m.Versions)
}

func (m *CtrlLockSync) decode(dec *wire.Decoder) {
	m.Site = core.SiteID(dec.Uint8())
	m.FailLocks = dec.Uint64s()
	m.Versions = dec.Uint64s()
}

// CtrlLockSyncAck acknowledges a CtrlLockSync.
type CtrlLockSyncAck struct{}

// Kind implements Body.
func (*CtrlLockSyncAck) Kind() Kind { return KindCtrlLockSyncAck }

func (m *CtrlLockSyncAck) encode(enc *wire.Encoder) {}
func (m *CtrlLockSyncAck) decode(dec *wire.Decoder) {}

// ReadReq asks a site for its versioned copies of the listed items. Two
// protocols use it: the quorum baseline (version voting across a
// majority; RequireFresh false) and ROWAA under partial replication, where
// a coordinator that hosts no copy of an item reads one from a hosting
// site (RequireFresh true: the donor must refuse if its copy is
// fail-locked). Fully replicated ROWAA — the paper's configuration —
// reads its local copy and never sends this.
type ReadReq struct {
	Txn          core.TxnID
	Items        []core.ItemID
	RequireFresh bool
}

// Kind implements Body.
func (*ReadReq) Kind() Kind { return KindReadReq }

func (m *ReadReq) encode(enc *wire.Encoder) {
	enc.Uvarint(uint64(m.Txn))
	encodeItems(enc, m.Items)
	enc.Bool(m.RequireFresh)
}

func (m *ReadReq) decode(dec *wire.Decoder) {
	m.Txn = core.TxnID(dec.Uvarint())
	m.Items = decodeItems(dec)
	m.RequireFresh = dec.Bool()
}

// ReadResp returns versioned copies for a ReadReq.
type ReadResp struct {
	Txn   core.TxnID
	OK    bool
	Items []core.ItemVersion
}

// Kind implements Body.
func (*ReadResp) Kind() Kind { return KindReadResp }

func (m *ReadResp) encode(enc *wire.Encoder) {
	enc.Uvarint(uint64(m.Txn))
	enc.Bool(m.OK)
	encodeItemVersions(enc, m.Items)
}

func (m *ReadResp) decode(dec *wire.Decoder) {
	m.Txn = core.TxnID(dec.Uvarint())
	m.OK = dec.Bool()
	m.Items = decodeItemVersions(dec)
}

// FailSim orders a site to simulate failure: "site failure was simulated by
// sending a message to a site to indicate that the site should not
// participate in any further system actions" (§1.2).
type FailSim struct{}

// Kind implements Body.
func (*FailSim) Kind() Kind { return KindFailSim }

func (m *FailSim) encode(*wire.Encoder) {}
func (m *FailSim) decode(*wire.Decoder) {}

// RecoverSim orders a failed site to begin recovery (run a type-1 control
// transaction and rejoin).
type RecoverSim struct{}

// Kind implements Body.
func (*RecoverSim) Kind() Kind { return KindRecoverSim }

func (m *RecoverSim) encode(*wire.Encoder) {}
func (m *RecoverSim) decode(*wire.Decoder) {}

// SiteStats is the counter block a site reports in StatusResp.
type SiteStats struct {
	Committed        uint64 // database transactions committed as coordinator
	Aborted          uint64 // database transactions aborted as coordinator
	Participated     uint64 // transactions committed as participant
	CopiersRequested uint64 // copier transactions this site initiated
	CopiesServed     uint64 // copy requests this site answered as donor
	FailLocksSet     uint64 // fail-lock bits this site set at commit time
	FailLocksCleared uint64 // fail-lock bits this site cleared
	ControlType1     uint64 // type-1 control transactions initiated
	ControlType2     uint64 // type-2 control transactions initiated
	ControlType3     uint64 // type-3 control transactions initiated
	MsgsIn           uint64 // messages received
	MsgsOut          uint64 // messages sent
}

func (s *SiteStats) encode(enc *wire.Encoder) {
	enc.Uvarint(s.Committed)
	enc.Uvarint(s.Aborted)
	enc.Uvarint(s.Participated)
	enc.Uvarint(s.CopiersRequested)
	enc.Uvarint(s.CopiesServed)
	enc.Uvarint(s.FailLocksSet)
	enc.Uvarint(s.FailLocksCleared)
	enc.Uvarint(s.ControlType1)
	enc.Uvarint(s.ControlType2)
	enc.Uvarint(s.ControlType3)
	enc.Uvarint(s.MsgsIn)
	enc.Uvarint(s.MsgsOut)
}

func (s *SiteStats) decode(dec *wire.Decoder) {
	s.Committed = dec.Uvarint()
	s.Aborted = dec.Uvarint()
	s.Participated = dec.Uvarint()
	s.CopiersRequested = dec.Uvarint()
	s.CopiesServed = dec.Uvarint()
	s.FailLocksSet = dec.Uvarint()
	s.FailLocksCleared = dec.Uvarint()
	s.ControlType1 = dec.Uvarint()
	s.ControlType2 = dec.Uvarint()
	s.ControlType3 = dec.Uvarint()
	s.MsgsIn = dec.Uvarint()
	s.MsgsOut = dec.Uvarint()
}

// StatusReq queries a site's vector, fail-lock state and counters. Set
// IncludeFailLocks to also receive the full fail-lock bitmap snapshot.
type StatusReq struct {
	IncludeFailLocks bool
}

// Kind implements Body.
func (*StatusReq) Kind() Kind { return KindStatusReq }

func (m *StatusReq) encode(enc *wire.Encoder) { enc.Bool(m.IncludeFailLocks) }
func (m *StatusReq) decode(dec *wire.Decoder) { m.IncludeFailLocks = dec.Bool() }

// StatusResp reports a site's replicated-copy-control state.
type StatusResp struct {
	Site           core.SiteID
	State          core.Status
	Session        core.SessionNum
	Vector         []core.SiteInfo
	FailLockCounts []uint32 // items fail-locked per site, indexed by SiteID
	FailLocks      []uint64 // full snapshot, only when requested
	Stats          SiteStats
}

// Kind implements Body.
func (*StatusResp) Kind() Kind { return KindStatusResp }

func (m *StatusResp) encode(enc *wire.Encoder) {
	enc.Uint8(uint8(m.Site))
	enc.Uint8(uint8(m.State))
	enc.Uvarint(uint64(m.Session))
	encodeVector(enc, m.Vector)
	enc.Uint32s(m.FailLockCounts)
	enc.Uint64s(m.FailLocks)
	m.Stats.encode(enc)
}

func (m *StatusResp) decode(dec *wire.Decoder) {
	m.Site = core.SiteID(dec.Uint8())
	m.State = core.Status(dec.Uint8())
	m.Session = core.SessionNum(dec.Uvarint())
	m.Vector = decodeVector(dec)
	m.FailLockCounts = dec.Uint32s()
	m.FailLocks = dec.Uint64s()
	m.Stats.decode(dec)
}

// DumpReq asks a site for its versioned copies of items in [First, Last],
// for the managing site's cross-site consistency audit.
//
// HostedOnly restricts the dump to the items the site hosts a copy of:
// under partial replication a full-range dump from every site would move
// O(items×sites) payload where the database only holds O(items×degree)
// copies, so the audit asks each site for exactly its hosted share.
type DumpReq struct {
	First, Last core.ItemID
	HostedOnly  bool
}

// Kind implements Body.
func (*DumpReq) Kind() Kind { return KindDumpReq }

func (m *DumpReq) encode(enc *wire.Encoder) {
	enc.Uvarint(uint64(m.First))
	enc.Uvarint(uint64(m.Last))
	enc.Bool(m.HostedOnly)
}

func (m *DumpReq) decode(dec *wire.Decoder) {
	m.First = core.ItemID(dec.Uvarint())
	m.Last = core.ItemID(dec.Uvarint())
	m.HostedOnly = dec.Bool()
}

// DumpResp returns the requested versioned copies.
type DumpResp struct {
	Items []core.ItemVersion
}

// Kind implements Body.
func (*DumpResp) Kind() Kind { return KindDumpResp }

func (m *DumpResp) encode(enc *wire.Encoder) { encodeItemVersions(enc, m.Items) }
func (m *DumpResp) decode(dec *wire.Decoder) { m.Items = decodeItemVersions(dec) }

// CtrlRehost re-homes copies of a permanently lost site: for each listed
// item, the receiver moves the Lost site's host bit to the corresponding
// NewHosts entry in its replica map (copy-on-write) and fail-locks the
// new host's copy — the new copy does not exist yet, so it is stale by
// construction and the ordinary copier machinery refreshes it. The
// fan-out reaches every operational site so replica maps and fail-lock
// tables stay agreed; Items and NewHosts are parallel slices.
type CtrlRehost struct {
	Lost     core.SiteID
	Items    []core.ItemID
	NewHosts []core.SiteID
}

// Kind implements Body.
func (*CtrlRehost) Kind() Kind { return KindCtrlRehost }

func (m *CtrlRehost) encode(enc *wire.Encoder) {
	enc.Uint8(uint8(m.Lost))
	encodeItems(enc, m.Items)
	enc.Uvarint(uint64(len(m.NewHosts)))
	for _, h := range m.NewHosts {
		enc.Uint8(uint8(h))
	}
}

func (m *CtrlRehost) decode(dec *wire.Decoder) {
	m.Lost = core.SiteID(dec.Uint8())
	m.Items = decodeItems(dec)
	n := dec.SliceLen()
	if dec.Err() != nil || n == 0 {
		return
	}
	m.NewHosts = make([]core.SiteID, 0, n)
	for i := 0; i < n; i++ {
		m.NewHosts = append(m.NewHosts, core.SiteID(dec.Uint8()))
	}
}

// CtrlRehostAck acknowledges a CtrlRehost.
type CtrlRehostAck struct {
	OK     bool
	Reason string
}

// Kind implements Body.
func (*CtrlRehostAck) Kind() Kind { return KindCtrlRehostAck }

func (m *CtrlRehostAck) encode(enc *wire.Encoder) {
	enc.Bool(m.OK)
	enc.String(m.Reason)
}

func (m *CtrlRehostAck) decode(dec *wire.Decoder) {
	m.OK = dec.Bool()
	m.Reason = dec.String()
}

// Shutdown orders a site to terminate ("site is terminating").
type Shutdown struct{}

// Kind implements Body.
func (*Shutdown) Kind() Kind { return KindShutdown }

func (m *Shutdown) encode(*wire.Encoder) {}
func (m *Shutdown) decode(*wire.Decoder) {}
