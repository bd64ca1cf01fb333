// Package txn defines the transaction model shared by the coordinator and
// participant roles: database transactions (sequences of read/write
// operations), their outcomes, and the standard abort reasons of the
// paper's protocol.
package txn

import (
	"errors"
	"fmt"

	"minraid/internal/core"
)

// Txn is one database transaction: an identifier and an ordered list of
// read/write operations, as generated by the managing site (§1.2). The
// order fixes the order of the results, not what a read sees: Appendix A.1
// runs the copiers, then the reads, then two-phase commit of the writes,
// so every read observes the state from before the transaction, even when
// it follows a write of the same item.
type Txn struct {
	ID  core.TxnID
	Ops []core.Op
}

// Validate checks that the transaction is well-formed for a database of
// dbSize items: non-zero ID, at least one operation, every item in range.
func (t Txn) Validate(dbSize int) error {
	if t.ID == core.NoTxn {
		return errors.New("txn: zero transaction id")
	}
	if len(t.Ops) == 0 {
		return errors.New("txn: no operations")
	}
	for i, op := range t.Ops {
		if op.Kind != core.OpRead && op.Kind != core.OpWrite {
			return fmt.Errorf("txn: op %d has invalid kind %d", i, op.Kind)
		}
		if int(op.Item) >= dbSize {
			return fmt.Errorf("txn: op %d references item %d of %d", i, op.Item, dbSize)
		}
	}
	return nil
}

// WriteVersions returns the phase-one copy updates for the transaction:
// the last written value of each distinct written item, versioned with the
// transaction ID. Later writes to the same item within one transaction win.
func (t Txn) WriteVersions() []core.ItemVersion {
	last := make(map[core.ItemID]int)
	for i, op := range t.Ops {
		if op.Kind == core.OpWrite {
			last[op.Item] = i
		}
	}
	out := make([]core.ItemVersion, 0, len(last))
	emitted := make(map[core.ItemID]bool, len(last))
	for _, op := range t.Ops {
		if op.Kind != core.OpWrite || emitted[op.Item] {
			continue
		}
		emitted[op.Item] = true
		final := t.Ops[last[op.Item]]
		out = append(out, core.ItemVersion{Item: op.Item, Version: t.ID, Value: final.Value})
	}
	return out
}

// IsReadOnly reports whether the transaction contains no writes.
func (t Txn) IsReadOnly() bool {
	for _, op := range t.Ops {
		if op.Kind == core.OpWrite {
			return false
		}
	}
	return true
}

// Abort reasons, mirroring the abort paths of the paper's pseudo-code
// (Appendix A) and its experiments. They travel in TxnResult.AbortReason.
const (
	// AbortNoDonor: a read hit a fail-locked copy and no operational site
	// holds an up-to-date copy ("the inability to get up-to-date copies
	// via copier transactions forced site 0 to abort 13 transactions",
	// §4.2.1).
	AbortNoDonor = "no up-to-date copy available for copier transaction"
	// AbortDonorDown: the site the copy request was sent to is now down.
	AbortDonorDown = "copier donor failed"
	// AbortParticipantDown: a participating site failed during phase one.
	AbortParticipantDown = "participating site failed"
	// AbortStaleSession: a participant rejected the coordinator's view of
	// its session (site status changed during execution).
	AbortStaleSession = "participant session changed during transaction"
	// AbortNoQuorum: the quorum baseline could not assemble a read or
	// write majority.
	AbortNoQuorum = "quorum unavailable"
	// AbortWriteUnavailable: under partial replication, every hosting
	// site of a written item is down (not even a single copy is
	// available, so even ROWAA cannot proceed).
	AbortWriteUnavailable = "no operational copy to write"
	// AbortLockTimeout: in concurrent mode, a lock could not be acquired
	// in time (contention, or a deadlock: the lock-wait timeout is the
	// one breaker); the transaction is retriable.
	AbortLockTimeout = "lock acquisition timed out"
	// AbortDeadlock is produced by nothing: ordered lock sets rule out
	// cycles inside a site, so the lock manager carries no detector to
	// pick a victim, and the cycles that span sites end in
	// AbortLockTimeout. It is kept because the benchmark's abort-reason
	// table still names it.
	AbortDeadlock = "deadlock victim"
	// AbortSiteDown: the coordinator itself failed mid-transaction.
	AbortSiteDown = "coordinator failed"
	// AbortInvalid: the transaction failed validation.
	AbortInvalid = "invalid transaction"
)

// Result is a coordinator-side transaction outcome.
type Result struct {
	Txn         core.TxnID
	Committed   bool
	AbortReason string
	Reads       []core.ItemVersion
	Copiers     int
}

// String implements fmt.Stringer.
func (r Result) String() string {
	if r.Committed {
		return fmt.Sprintf("txn %d committed (%d reads, %d copiers)", r.Txn, len(r.Reads), r.Copiers)
	}
	return fmt.Sprintf("txn %d aborted: %s", r.Txn, r.AbortReason)
}
