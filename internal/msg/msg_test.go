package msg

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"minraid/internal/core"
)

// roundTrip marshals an envelope, unmarshals it, and compares deep
// equality.
func roundTrip(t *testing.T, env *Envelope) *Envelope {
	t.Helper()
	buf := Marshal(env)
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal(%s): %v", env.Body.Kind(), err)
	}
	if !reflect.DeepEqual(env, got) {
		t.Fatalf("%s round trip:\n sent %#v\n got  %#v", env.Body.Kind(), env, got)
	}
	return got
}

func TestRoundTripAllKinds(t *testing.T) {
	vec := core.NewSessionVector(3)
	vec.MarkDown(1)
	bodies := []Body{
		&ClientTxn{Txn: 42, Ops: []core.Op{core.Read(1), core.Write(2, []byte("v"))}},
		&TxnResult{Txn: 42, Committed: true, Reads: []core.ItemVersion{{Item: 1, Version: 9, Value: []byte("x")}}, Copiers: 2, ElapsedNanos: 12345},
		&TxnResult{Txn: 43, Committed: false, AbortReason: "participant failed"},
		&Prepare{Txn: 7, Vector: vec.Records(), Writes: []core.ItemVersion{{Item: 3, Version: 7, Value: []byte("w")}}},
		&Prepare{Txn: 8, Vector: vec.Records(), MaintOnly: []core.ItemID{1, 4}},
		&PrepareAck{Txn: 7, OK: true},
		&PrepareAck{Txn: 7, OK: true, Versions: []uint64{3, 0, 1 << 40}},
		&PrepareAck{Txn: 7, OK: false, Reason: "stale session"},
		&Commit{Txn: 7},
		&CommitAck{Txn: 7},
		&Abort{Txn: 7},
		&CopyRequest{Txn: 8, Items: []core.ItemID{1, 2, 3}},
		&CopyResponse{Txn: 8, OK: true, Items: []core.ItemVersion{{Item: 1, Version: 5, Value: []byte("y")}}},
		&CopyResponse{Txn: 8, OK: false, Reason: "donor fail-locked"},
		&ClearFailLocks{Txn: 9, Site: 2, Items: []core.ItemID{4, 5}},
		&ClearFailLocksAck{Txn: 9},
		&CtrlRecover{Site: 1, Session: 3},
		&CtrlRecoverAck{OK: true, Vector: vec.Records(), FailLocks: []uint64{0, 3, 0, 8}, Versions: []uint64{2, 9, 0, 4}},
		&CtrlRecoverAck{OK: false, Reason: "not operational"},
		&CtrlFail{Failed: []SiteFail{{Site: 0, Session: 2}, {Site: 3, Session: 1}}},
		&CtrlFailAck{},
		&CtrlReplicate{Items: []core.ItemVersion{{Item: 1, Version: 2, Value: []byte("z")}}},
		&CtrlReplicateAck{OK: true},
		&CtrlLockSync{Site: 2, FailLocks: []uint64{0, 5, 0, 2}, Versions: []uint64{1, 7, 0, 3}},
		&CtrlLockSyncAck{},
		&ReadReq{Txn: 10, Items: []core.ItemID{0}},
		&ReadReq{Txn: 11, Items: []core.ItemID{2, 3}, RequireFresh: true},
		&ReadResp{Txn: 10, OK: true, Items: []core.ItemVersion{{Item: 0, Version: 1, Value: []byte("a")}}},
		&FailSim{},
		&RecoverSim{},
		&StatusReq{IncludeFailLocks: true},
		&StatusResp{
			Site: 2, State: core.StatusUp, Session: 4,
			Vector:         vec.Records(),
			FailLockCounts: []uint32{0, 12, 0},
			FailLocks:      []uint64{1, 2, 4},
			Stats:          SiteStats{Committed: 10, Aborted: 1, FailLocksSet: 99, MsgsIn: 7, MsgsOut: 8},
		},
		&DumpReq{First: 0, Last: 49},
		&DumpReq{First: 0, Last: 49, HostedOnly: true},
		&DumpResp{Items: []core.ItemVersion{{Item: 0, Version: 0}}},
		&CtrlRehost{Lost: 1, Items: []core.ItemID{3, 9}, NewHosts: []core.SiteID{2, 0}},
		&CtrlRehostAck{OK: true},
		&CtrlRehostAck{OK: false, Reason: "not operational"},
		&Shutdown{},
	}
	for i, b := range bodies {
		env := &Envelope{From: 1, To: 2, Seq: uint64(i + 1), ReplyTo: uint64(i), Trace: uint64(i) * 1000003, Body: b}
		roundTrip(t, env)
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindInvalid; k < numKinds; k++ {
		s := k.String()
		if s == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
	if Kind(200).String() != "Kind(200)" {
		t.Errorf("unknown kind String = %q", Kind(200).String())
	}
}

func TestEveryKindHasBody(t *testing.T) {
	for k := KindInvalid + 1; k < numKinds; k++ {
		b := newBody(k)
		if b == nil {
			t.Errorf("kind %s has no body constructor", k)
			continue
		}
		if b.Kind() != k {
			t.Errorf("body for %s reports kind %s", k, b.Kind())
		}
	}
	if newBody(KindInvalid) != nil {
		t.Error("invalid kind produced a body")
	}
	if newBody(numKinds) != nil {
		t.Error("out-of-range kind produced a body")
	}
}

func TestIsReplyPartition(t *testing.T) {
	replies := map[Kind]bool{
		KindTxnResult: true, KindPrepareAck: true, KindCommitAck: true,
		KindCopyResponse: true, KindClearFailLocksAck: true,
		KindCtrlRecoverAck: true, KindCtrlFailAck: true,
		KindCtrlReplicateAck: true, KindCtrlLockSyncAck: true,
		KindCtrlRehostAck: true, KindCommitBatchAck: true,
		KindReadResp: true, KindStatusResp: true, KindDumpResp: true,
	}
	for k := KindInvalid + 1; k < numKinds; k++ {
		if got := k.IsReply(); got != replies[k] {
			t.Errorf("%s.IsReply() = %v, want %v", k, got, replies[k])
		}
	}
}

func TestUnmarshalRejectsUnknownKind(t *testing.T) {
	env := &Envelope{From: 0, To: 1, Seq: 1, Body: &Commit{Txn: 1}}
	buf := Marshal(env)
	// Kind byte follows Version(1)+From(1)+To(1)+Seq(1)+ReplyTo(1)+Trace(1)
	// for small varints.
	buf[6] = 250
	if _, err := Unmarshal(buf); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestUnmarshalRejectsOldFormat builds a pre-version-byte (v1) envelope —
// From, To, Seq, ReplyTo, kind, body, with no version byte and no trace —
// and checks the decoder rejects it with a clean version error instead of
// misparsing it.
func TestUnmarshalRejectsOldFormat(t *testing.T) {
	v1 := []byte{
		0,                // From = site 0 (read as version byte by v2)
		1,                // To = site 1
		1,                // Seq = 1
		0,                // ReplyTo = 0
		byte(KindCommit), // kind
		9,                // Commit.Txn = 9
	}
	_, err := Unmarshal(v1)
	if err == nil {
		t.Fatal("v1 envelope accepted by v2 decoder")
	}
	if !strings.Contains(err.Error(), "envelope version 0") {
		t.Errorf("error does not identify the version mismatch: %v", err)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	for _, tr := range []uint64{0, 1, 42, 1 << 32, 1<<64 - 1} {
		env := &Envelope{From: 0, To: 1, Seq: 9, Trace: tr, Body: &Commit{Txn: 3}}
		got := roundTrip(t, env)
		if got.Trace != tr {
			t.Errorf("Trace %d round-tripped as %d", tr, got.Trace)
		}
	}
}

func TestUnmarshalRejectsTruncation(t *testing.T) {
	env := &Envelope{From: 0, To: 1, Seq: 7, Body: &ClientTxn{Txn: 3, Ops: []core.Op{core.Write(1, []byte("abc"))}}}
	buf := Marshal(env)
	for n := 0; n < len(buf); n++ {
		if _, err := Unmarshal(buf[:n]); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

func TestUnmarshalRejectsTrailingGarbage(t *testing.T) {
	buf := Marshal(&Envelope{From: 0, To: 1, Seq: 1, Body: &Shutdown{}})
	buf = append(buf, 0xEE)
	if _, err := Unmarshal(buf); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestEnvelopeString(t *testing.T) {
	env := &Envelope{From: 0, To: 1, Seq: 5, ReplyTo: 0, Body: &Commit{Txn: 9}}
	want := "site 0->site 1 #5 re#0 commit"
	if got := env.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	env.Trace = 9
	want = "site 0->site 1 #5 re#0 tr#9 commit"
	if got := env.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// Property: ClientTxn envelopes with arbitrary op lists survive the round
// trip, and random buffers never panic Unmarshal.
func TestQuickClientTxn(t *testing.T) {
	prop := func(txn uint64, seq uint64, trace uint64, items []uint16, writes []bool, vals [][]byte) bool {
		var ops []core.Op
		for i, it := range items {
			w := i < len(writes) && writes[i]
			if w {
				var v []byte
				if i < len(vals) {
					v = vals[i]
				}
				if len(v) == 0 {
					v = nil
				}
				ops = append(ops, core.Write(core.ItemID(it), v))
			} else {
				ops = append(ops, core.Read(core.ItemID(it)))
			}
		}
		env := &Envelope{From: 3, To: 4, Seq: seq, Trace: trace, Body: &ClientTxn{Txn: core.TxnID(txn), Ops: ops}}
		got, err := Unmarshal(Marshal(env))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(env, got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickUnmarshalNoPanic(t *testing.T) {
	prop := func(buf []byte) bool {
		_, _ = Unmarshal(buf)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
