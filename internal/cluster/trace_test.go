package cluster

import (
	"slices"
	"strings"
	"testing"
	"time"

	"minraid/internal/core"
	"minraid/internal/trace"
)

// TestSpanTimelineAcrossFailureRecovery reconstructs the full trace span
// of one transaction that exercises the whole stack: after a site fails,
// an update fail-locks an item; once the site recovers, a transaction
// coordinated there must run a copier sub-span before its own prepare
// and commit. The span must read inject -> copier -> prepare -> commit
// in chronological order, under either commit mode: epoch-batched
// commit runs the same participant phase two.
func TestSpanTimelineAcrossFailureRecovery(t *testing.T) {
	for _, tc := range []struct {
		name  string
		epoch time.Duration
	}{{"per-txn", 0}, {"epoch", 2 * time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) { spanTimelineAcrossFailureRecovery(t, tc.epoch) })
	}
}

func spanTimelineAcrossFailureRecovery(t *testing.T, epoch time.Duration) {
	c := newTestCluster(t, Config{Sites: 2, Items: 10, CommitEpoch: epoch})

	// Fail site 1 and update item 3 so site 0 fail-locks it for site 1.
	failAndDetect(t, c, 1, 0)
	if res, err := c.Exec(0, []core.Op{core.Write(3, val(1))}); err != nil || !res.Committed {
		t.Fatalf("update during failure: %v %v", res, err)
	}
	if _, err := c.Recover(1); err != nil {
		t.Fatal(err)
	}

	// A transaction coordinated at the freshly recovered site reading the
	// fail-locked item: the coordinator must refresh it with a copier
	// before the usual two-phase commit.
	res, err := c.Exec(1, []core.Op{core.Read(3), core.Write(4, val(2))})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("aborted: %s", res.AbortReason)
	}
	if res.Copiers == 0 {
		t.Fatal("expected at least one copier transaction")
	}

	// An epoch flush answers the client before the participant applies:
	// give the participant's commit event time to land.
	span := c.Tracer().Span(trace.ID(res.Txn))
	for deadline := time.Now().Add(time.Second); !slices.Contains(span.Phases(), trace.PhaseCommit) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		span = c.Tracer().Span(trace.ID(res.Txn))
	}
	if len(span.Events) == 0 {
		t.Fatal("no trace events recorded for the transaction")
	}

	// Chronological ordering is Span's contract.
	for i := 1; i < len(span.Events); i++ {
		if span.Events[i].At.Before(span.Events[i-1].At) {
			t.Fatalf("events out of order at %d:\n%s", i, span.Timeline())
		}
	}

	// The span must contain every phase of the story, including the
	// copier sub-span on the recovered coordinator.
	idx := map[string]int{}
	for i, ev := range span.Events {
		if _, seen := idx[ev.Phase]; !seen {
			idx[ev.Phase] = i
		}
	}
	for _, phase := range []string{
		trace.PhaseInject, trace.PhaseCopier, trace.PhaseCopyServe,
		trace.PhasePrepare, trace.PhaseCommit, trace.PhaseCoord,
	} {
		if _, ok := idx[phase]; !ok {
			t.Errorf("span missing phase %q:\n%s", phase, span.Timeline())
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// The copier ran before the transaction's own commit, and the donor
	// (site 0) served the copy request inside the copier window.
	if idx[trace.PhaseCopier] > idx[trace.PhaseCommit] {
		t.Errorf("copier after commit:\n%s", span.Timeline())
	}
	for _, ev := range span.Events {
		switch ev.Phase {
		case trace.PhaseCopier:
			if ev.Site != 1 {
				t.Errorf("copier ran on %s, want site 1", ev.Site)
			}
		case trace.PhaseCopyServe:
			if ev.Site != 0 {
				t.Errorf("copy served by %s, want site 0", ev.Site)
			}
		case trace.PhaseInject:
			if ev.Site != core.ManagingSite {
				t.Errorf("inject recorded on %s, want manager", ev.Site)
			}
		}
	}

	// Timeline renders a header plus one line per event.
	lines := strings.Split(strings.TrimRight(span.Timeline(), "\n"), "\n")
	if len(lines) != len(span.Events)+1 {
		t.Errorf("timeline has %d lines for %d events", len(lines), len(span.Events))
	}

	if span.Duration() <= 0 {
		t.Error("span duration not positive")
	}
}

// TestAdminOperationsTraced checks fail/recover orders get their own
// admin-range trace IDs and record control-transaction events.
func TestAdminOperationsTraced(t *testing.T) {
	c := newTestCluster(t, Config{Sites: 2, Items: 5})
	failAndDetect(t, c, 1, 0)
	if res, err := c.Exec(0, []core.Op{core.Write(1, val(9))}); err != nil || !res.Committed {
		t.Fatalf("update during failure: %v %v", res, err)
	}
	if _, err := c.Recover(1); err != nil {
		t.Fatal(err)
	}

	// Admin op 2 is the recover; its span must show the type-1 control
	// transaction running on the recovering site.
	span := c.Tracer().Span(trace.AdminBase + 2)
	found := false
	for _, ev := range span.Events {
		if ev.Phase == trace.PhaseCtrl1 && ev.Site == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("recover span lacks a ctrl1 event on site 1: %v", span.Events)
	}

	// Admin traces must not consume transaction IDs.
	if id := c.NextTxnID(); id != 3 {
		t.Errorf("next txn ID = %d, want 3 (admin ops must not consume txn IDs)", id)
	}
}
