// Package msg defines every message exchanged between mini-RAID sites and
// the managing site, together with their binary encoding on top of
// internal/wire.
//
// The message set covers the full protocol of the paper:
//
//   - database transactions and their two-phase commit (ClientTxn, Prepare,
//     PrepareAck, Commit, CommitAck, Abort, TxnResult — Appendix A);
//   - copier transactions (CopyRequest, CopyResponse) and the special
//     transaction that clears fail-locks at other sites after a copier
//     (ClearFailLocks, ClearFailLocksAck — §1.2);
//   - control transactions of type 1 (CtrlRecover/CtrlRecoverAck), type 2
//     (CtrlFail/CtrlFailAck) and the paper's proposed type 3
//     (CtrlReplicate/CtrlReplicateAck — §3.2);
//   - quorum-policy version-voting reads (ReadReq/ReadResp), used only by
//     the baseline quorum protocol, never by ROWAA;
//   - managing-site control (FailSim, RecoverSim, StatusReq/StatusResp,
//     DumpReq/DumpResp, Shutdown — §1.2 "managing site").
package msg

import "fmt"

// Kind identifies a message body type on the wire.
type Kind uint8

// Message kinds. The explicit values are part of the wire format; append
// only.
const (
	KindInvalid Kind = iota

	// Database transaction processing (Appendix A).
	KindClientTxn  // managing site -> coordinator: run this transaction
	KindTxnResult  // coordinator -> managing site: outcome
	KindPrepare    // coordinator -> participants: phase-one copy update
	KindPrepareAck // participant -> coordinator: vote
	KindCommit     // coordinator -> participants: phase-two commit
	KindCommitAck  // participant -> coordinator
	KindAbort      // coordinator -> participants: discard copy updates

	// Copier transactions and the fail-lock-clearing special transaction.
	KindCopyRequest       // recovering coordinator -> donor site
	KindCopyResponse      // donor site -> recovering coordinator
	KindClearFailLocks    // coordinator -> other sites: special transaction
	KindClearFailLocksAck // other site -> coordinator

	// Control transactions.
	KindCtrlRecover      // type 1: recovering site -> operational sites
	KindCtrlRecoverAck   // carries session vector + fail-locks back
	KindCtrlFail         // type 2: failure announcement
	KindCtrlFailAck      //
	KindCtrlReplicate    // type 3: back up a last up-to-date copy
	KindCtrlReplicateAck //

	// Quorum baseline only.
	KindReadReq  // coordinator -> quorum members: versioned read
	KindReadResp // quorum member -> coordinator

	// Managing-site control plane.
	KindFailSim    // order a site to simulate failure
	KindRecoverSim // order a failed site to begin recovery
	KindStatusReq  // query a site's vector, fail-locks and counters
	KindStatusResp //
	KindDumpReq    // dump versioned copies for the consistency audit
	KindDumpResp   //
	KindShutdown   // order a site to terminate

	// Type-1 epilogue (appended: explicit kind values are wire format).
	KindCtrlLockSync    // recovered site -> operational sites: lock words at top versions
	KindCtrlLockSyncAck //

	// Permanent-loss rebalancing (appended).
	KindCtrlRehost    // managing site -> sites: re-home a lost site's copies
	KindCtrlRehostAck //

	// Epoch-batched commit (appended): one phase-two fan-out per commit
	// epoch instead of per transaction.
	KindCommitBatch    // coordinator -> participant: commit these staged txns
	KindCommitBatchAck // participant -> coordinator

	numKinds // sentinel, keep last
)

var kindNames = [...]string{
	KindInvalid:           "invalid",
	KindClientTxn:         "client-txn",
	KindTxnResult:         "txn-result",
	KindPrepare:           "prepare",
	KindPrepareAck:        "prepare-ack",
	KindCommit:            "commit",
	KindCommitAck:         "commit-ack",
	KindAbort:             "abort",
	KindCopyRequest:       "copy-request",
	KindCopyResponse:      "copy-response",
	KindClearFailLocks:    "clear-fail-locks",
	KindClearFailLocksAck: "clear-fail-locks-ack",
	KindCtrlRecover:       "ctrl-recover",
	KindCtrlRecoverAck:    "ctrl-recover-ack",
	KindCtrlFail:          "ctrl-fail",
	KindCtrlFailAck:       "ctrl-fail-ack",
	KindCtrlReplicate:     "ctrl-replicate",
	KindCtrlReplicateAck:  "ctrl-replicate-ack",
	KindReadReq:           "read-req",
	KindReadResp:          "read-resp",
	KindFailSim:           "fail-sim",
	KindRecoverSim:        "recover-sim",
	KindStatusReq:         "status-req",
	KindStatusResp:        "status-resp",
	KindDumpReq:           "dump-req",
	KindDumpResp:          "dump-resp",
	KindShutdown:          "shutdown",
	KindCtrlLockSync:      "ctrl-lock-sync",
	KindCtrlLockSyncAck:   "ctrl-lock-sync-ack",
	KindCtrlRehost:        "ctrl-rehost",
	KindCtrlRehostAck:     "ctrl-rehost-ack",
	KindCommitBatch:       "commit-batch",
	KindCommitBatchAck:    "commit-batch-ack",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsReply reports whether a message kind is a response correlated to a
// pending request via Envelope.ReplyTo. Replies are routed to the waiting
// caller instead of the site's request handler.
func (k Kind) IsReply() bool {
	switch k {
	case KindTxnResult, KindPrepareAck, KindCommitAck, KindCommitBatchAck,
		KindCopyResponse, KindClearFailLocksAck, KindCtrlRecoverAck,
		KindCtrlFailAck, KindCtrlReplicateAck, KindCtrlLockSyncAck,
		KindCtrlRehostAck, KindReadResp, KindStatusResp, KindDumpResp:
		return true
	}
	return false
}
