package msg

import (
	"fmt"
	"sync"

	"minraid/internal/core"
	"minraid/internal/wire"
)

// Envelope wraps a message body with routing and correlation metadata.
//
// Seq is unique per sending site; a reply carries the request's Seq in
// ReplyTo so the sender can match it to its pending call, exactly like an
// RPC transaction ID. Requests have ReplyTo == 0.
//
// Trace carries the trace ID of the activity this message belongs to
// (the transaction ID for transaction traffic, an admin ID for control
// operations), propagated unchanged through every message a traced
// activity causes. Zero means untraced.
type Envelope struct {
	From    core.SiteID
	To      core.SiteID
	Seq     uint64
	ReplyTo uint64
	Trace   uint64
	Body    Body
}

// String implements fmt.Stringer.
func (e *Envelope) String() string {
	if e.Trace != 0 {
		return fmt.Sprintf("%s->%s #%d re#%d tr#%d %s", e.From, e.To, e.Seq, e.ReplyTo, e.Trace, e.Body.Kind())
	}
	return fmt.Sprintf("%s->%s #%d re#%d %s", e.From, e.To, e.Seq, e.ReplyTo, e.Body.Kind())
}

// Body is a protocol message payload.
type Body interface {
	// Kind identifies the body type on the wire.
	Kind() Kind
	// encode appends the body to enc.
	encode(enc *wire.Encoder)
	// decode reads the body from dec; errors surface via dec.Err.
	decode(dec *wire.Decoder)
}

// EnvelopeVersion is the wire-format version byte leading every
// marshalled envelope. Version 1 (implicit: no version byte, header
// started with the From site) predates the Trace field; version 2 adds
// the leading version byte and a Trace uvarint after ReplyTo. Decoding
// rejects any other version with a clean error rather than guessing.
const EnvelopeVersion = 2

// Marshal encodes an envelope to bytes, in a buffer of its own.
func Marshal(env *Envelope) []byte {
	enc := wire.NewEncoder(64)
	MarshalTo(enc, env)
	return enc.Bytes()
}

// MarshalTo appends the encoding of env to enc, so a sender can encode
// every message into one reused encoder and copy out only the bytes.
func MarshalTo(enc *wire.Encoder, env *Envelope) {
	enc.Uint8(EnvelopeVersion)
	enc.Uint8(uint8(env.From))
	enc.Uint8(uint8(env.To))
	enc.Uvarint(env.Seq)
	enc.Uvarint(env.ReplyTo)
	enc.Uvarint(env.Trace)
	enc.Uint8(uint8(env.Body.Kind()))
	env.Body.encode(enc)
}

// decoders recycles Unmarshal's decoders: a decoder is only scratch state
// for one call, and a message costs no allocation for it.
var decoders = sync.Pool{New: func() any { return new(wire.Decoder) }}

// Unmarshal decodes an envelope from buf and takes ownership of buf: the
// write values of ClientTxn ops and the values of every []core.ItemVersion
// are capacity-clipped sub-slices of it rather than copies, so the caller
// must not write to buf afterwards, and the decoded message keeps it
// alive. Every wire hands over a buffer of its own: the memory wire a copy
// of its encoder's bytes, TCP a freshly read frame.
func Unmarshal(buf []byte) (*Envelope, error) {
	dec := decoders.Get().(*wire.Decoder)
	dec.Reset(buf)
	env, err := unmarshal(dec)
	dec.Reset(nil)
	decoders.Put(dec)
	return env, err
}

func unmarshal(dec *wire.Decoder) (*Envelope, error) {
	if v := dec.Uint8(); dec.Err() == nil && v != EnvelopeVersion {
		return nil, fmt.Errorf("msg: %w: envelope version %d, want %d", wire.ErrCorrupt, v, EnvelopeVersion)
	}
	env := &Envelope{
		From:    core.SiteID(dec.Uint8()),
		To:      core.SiteID(dec.Uint8()),
		Seq:     dec.Uvarint(),
		ReplyTo: dec.Uvarint(),
		Trace:   dec.Uvarint(),
	}
	kind := Kind(dec.Uint8())
	if dec.Err() != nil {
		return nil, fmt.Errorf("msg: decoding envelope header: %w", dec.Err())
	}
	body := newBody(kind)
	if body == nil {
		return nil, fmt.Errorf("msg: %w: unknown kind %d", wire.ErrCorrupt, kind)
	}
	body.decode(dec)
	if err := dec.Finish(); err != nil {
		return nil, fmt.Errorf("msg: decoding %s body: %w", kind, err)
	}
	env.Body = body
	return env, nil
}

// newBody returns a zero body for kind, or nil for an unknown kind.
func newBody(kind Kind) Body {
	switch kind {
	case KindClientTxn:
		return &ClientTxn{}
	case KindTxnResult:
		return &TxnResult{}
	case KindPrepare:
		return &Prepare{}
	case KindPrepareAck:
		return &PrepareAck{}
	case KindCommit:
		return &Commit{}
	case KindCommitAck:
		return &CommitAck{}
	case KindAbort:
		return &Abort{}
	case KindCopyRequest:
		return &CopyRequest{}
	case KindCopyResponse:
		return &CopyResponse{}
	case KindClearFailLocks:
		return &ClearFailLocks{}
	case KindClearFailLocksAck:
		return &ClearFailLocksAck{}
	case KindCtrlRecover:
		return &CtrlRecover{}
	case KindCtrlRecoverAck:
		return &CtrlRecoverAck{}
	case KindCtrlFail:
		return &CtrlFail{}
	case KindCtrlFailAck:
		return &CtrlFailAck{}
	case KindCtrlReplicate:
		return &CtrlReplicate{}
	case KindCtrlReplicateAck:
		return &CtrlReplicateAck{}
	case KindCtrlLockSync:
		return &CtrlLockSync{}
	case KindCtrlLockSyncAck:
		return &CtrlLockSyncAck{}
	case KindCtrlRehost:
		return &CtrlRehost{}
	case KindCtrlRehostAck:
		return &CtrlRehostAck{}
	case KindCommitBatch:
		return &CommitBatch{}
	case KindCommitBatchAck:
		return &CommitBatchAck{}
	case KindReadReq:
		return &ReadReq{}
	case KindReadResp:
		return &ReadResp{}
	case KindFailSim:
		return &FailSim{}
	case KindRecoverSim:
		return &RecoverSim{}
	case KindStatusReq:
		return &StatusReq{}
	case KindStatusResp:
		return &StatusResp{}
	case KindDumpReq:
		return &DumpReq{}
	case KindDumpResp:
		return &DumpResp{}
	case KindShutdown:
		return &Shutdown{}
	default:
		return nil
	}
}

// Shared field encodings.

func encodeOps(enc *wire.Encoder, ops []core.Op) {
	enc.Uvarint(uint64(len(ops)))
	for _, op := range ops {
		enc.Uint8(uint8(op.Kind))
		enc.Uvarint(uint64(op.Item))
		if op.Kind == core.OpWrite {
			enc.PutBytes(op.Value)
		}
	}
}

func decodeOps(dec *wire.Decoder) []core.Op {
	n := dec.SliceLen()
	if dec.Err() != nil || n == 0 {
		return nil
	}
	ops := make([]core.Op, 0, n)
	for i := 0; i < n; i++ {
		op := core.Op{Kind: core.OpKind(dec.Uint8()), Item: core.ItemID(dec.Uvarint())}
		if op.Kind == core.OpWrite {
			op.Value = dec.BytesView()
		}
		if dec.Err() != nil {
			return nil
		}
		ops = append(ops, op)
	}
	return ops
}

func encodeItemVersions(enc *wire.Encoder, ivs []core.ItemVersion) {
	enc.Uvarint(uint64(len(ivs)))
	for _, iv := range ivs {
		enc.Uvarint(uint64(iv.Item))
		enc.Uvarint(uint64(iv.Version))
		enc.PutBytes(iv.Value)
	}
}

func decodeItemVersions(dec *wire.Decoder) []core.ItemVersion {
	n := dec.SliceLen()
	if dec.Err() != nil || n == 0 {
		return nil
	}
	ivs := make([]core.ItemVersion, 0, n)
	for i := 0; i < n; i++ {
		iv := core.ItemVersion{
			Item:    core.ItemID(dec.Uvarint()),
			Version: core.TxnID(dec.Uvarint()),
			Value:   dec.BytesView(),
		}
		if dec.Err() != nil {
			return nil
		}
		ivs = append(ivs, iv)
	}
	return ivs
}

func encodeVector(enc *wire.Encoder, recs []core.SiteInfo) {
	enc.Uvarint(uint64(len(recs)))
	for _, r := range recs {
		enc.Uvarint(uint64(r.Session))
		enc.Uint8(uint8(r.Status))
	}
}

func decodeVector(dec *wire.Decoder) []core.SiteInfo {
	n := dec.SliceLen()
	if dec.Err() != nil || n == 0 {
		return nil
	}
	recs := make([]core.SiteInfo, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, core.SiteInfo{
			Session: core.SessionNum(dec.Uvarint()),
			Status:  core.Status(dec.Uint8()),
		})
	}
	if dec.Err() != nil {
		return nil
	}
	return recs
}

func encodeItems(enc *wire.Encoder, items []core.ItemID) {
	enc.Uvarint(uint64(len(items)))
	for _, it := range items {
		enc.Uvarint(uint64(it))
	}
}

func decodeItems(dec *wire.Decoder) []core.ItemID {
	n := dec.SliceLen()
	if dec.Err() != nil || n == 0 {
		return nil
	}
	items := make([]core.ItemID, 0, n)
	for i := 0; i < n; i++ {
		items = append(items, core.ItemID(dec.Uvarint()))
	}
	if dec.Err() != nil {
		return nil
	}
	return items
}
