// Package wire implements the binary encoding used on every link of the
// system: a small, dependency-free codec (little-endian fixed integers,
// unsigned varints, length-prefixed byte strings) plus a self-describing
// frame format with CRC-32 integrity checking.
//
// The paper's mini-RAID assumed "a reliable message passing facility: no
// messages were lost; messages arrived and were processed in the order that
// they were sent; and no errors in transmission altered the messages"
// (§1.2, assumption 1). The in-memory transport gives that for free; the
// TCP transport relies on TCP ordering and uses the frame checksum to turn
// any residual corruption into a detected connection error rather than a
// silently altered message.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Codec limits. Oversized fields indicate corruption or abuse and are
// rejected before any allocation is attempted.
const (
	// MaxBytesLen bounds a single length-prefixed byte string.
	MaxBytesLen = 16 << 20
	// MaxSliceLen bounds the element count of encoded slices.
	MaxSliceLen = 1 << 24
)

// Errors returned by the decoder. All decoding errors wrap ErrCorrupt so
// callers can treat any malformed input uniformly.
var (
	ErrCorrupt = errors.New("wire: corrupt data")
	// ErrShort indicates truncated input.
	ErrShort = fmt.Errorf("%w: short buffer", ErrCorrupt)
)

// Encoder appends binary data to a buffer. The zero value is ready to use.
// Encoders are not safe for concurrent use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with capacity pre-allocated for sizeHint
// bytes.
func NewEncoder(sizeHint int) *Encoder {
	return &Encoder{buf: make([]byte, 0, sizeHint)}
}

// Bytes returns the encoded buffer. The buffer is owned by the encoder
// until Reset is called; callers that retain it must copy.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards the buffer contents, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uint8 appends a single byte.
func (e *Encoder) Uint8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint8(1)
	} else {
		e.Uint8(0)
	}
}

// Uint16 appends a fixed-width little-endian uint16.
func (e *Encoder) Uint16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

// Uint32 appends a fixed-width little-endian uint32.
func (e *Encoder) Uint32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// Uint64 appends a fixed-width little-endian uint64.
func (e *Encoder) Uint64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a signed (zig-zag) varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Float64 appends an IEEE-754 double.
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Bytes appends a length-prefixed byte string. nil and empty encode
// identically (length 0).
func (e *Encoder) PutBytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Uint64s appends a length-prefixed slice of uint64 (varint elements).
func (e *Encoder) Uint64s(v []uint64) {
	e.Uvarint(uint64(len(v)))
	for _, x := range v {
		e.Uvarint(x)
	}
}

// Uint32s appends a length-prefixed slice of uint32 (varint elements).
func (e *Encoder) Uint32s(v []uint32) {
	e.Uvarint(uint64(len(v)))
	for _, x := range v {
		e.Uvarint(uint64(x))
	}
}

// Decoder consumes binary data produced by Encoder. It is error-sticky:
// after the first failure every subsequent read returns the zero value and
// Err reports the original error, so decode paths can run straight-line and
// check once at the end.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over buf. The decoder does not copy buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Reset points the decoder at buf from its start and clears any error, so
// one decoder can serve many buffers. Reset(nil) drops the reference to
// the last one.
func (d *Decoder) Reset(buf []byte) { *d = Decoder{buf: buf} }

// Err returns the first error encountered, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish returns an error if decoding failed or if unread bytes remain —
// trailing garbage means the sender and receiver disagree about the schema.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.Remaining() < n {
		d.fail(ErrShort)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Uint8 reads one byte.
func (d *Decoder) Uint8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean; any byte other than 0 or 1 is corruption.
func (d *Decoder) Bool() bool {
	switch d.Uint8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("%w: invalid bool", ErrCorrupt))
		return false
	}
}

// Uint16 reads a fixed-width little-endian uint16.
func (d *Decoder) Uint16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// Uint32 reads a fixed-width little-endian uint32.
func (d *Decoder) Uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Uint64 reads a fixed-width little-endian uint64.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(fmt.Errorf("%w: bad uvarint", ErrCorrupt))
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail(fmt.Errorf("%w: bad varint", ErrCorrupt))
		return 0
	}
	d.off += n
	return v
}

// Float64 reads an IEEE-754 double.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// Bytes reads a length-prefixed byte string. The result is a copy and safe
// to retain. A zero length decodes as nil.
func (d *Decoder) Bytes() []byte { return bytes.Clone(d.BytesView()) }

// BytesView reads a length-prefixed byte string like Bytes, but returns it
// as a sub-slice of the decoder's buffer instead of a copy. The capacity is
// clipped to the length, so an append to the result reallocates rather
// than overwriting the bytes that follow it. It is for callers that own
// the buffer and let the decoded values keep it alive; the result aliases
// the buffer, so a later write to either shows in both.
func (d *Decoder) BytesView() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > MaxBytesLen {
		d.fail(fmt.Errorf("%w: byte string of %d exceeds limit", ErrCorrupt, n))
		return nil
	}
	if n == 0 {
		return nil
	}
	src := d.take(int(n))
	if src == nil {
		return nil
	}
	return src[:n:n]
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > MaxBytesLen {
		d.fail(fmt.Errorf("%w: string of %d exceeds limit", ErrCorrupt, n))
		return ""
	}
	src := d.take(int(n))
	if src == nil {
		return ""
	}
	return string(src)
}

// sliceLen validates a decoded element count.
func (d *Decoder) sliceLen() int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > MaxSliceLen {
		d.fail(fmt.Errorf("%w: slice of %d exceeds limit", ErrCorrupt, n))
		return 0
	}
	return int(n)
}

// Uint64s reads a length-prefixed slice of uint64.
func (d *Decoder) Uint64s() []uint64 {
	n := d.sliceLen()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.Uvarint()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Uint32s reads a length-prefixed slice of uint32.
func (d *Decoder) Uint32s() []uint32 {
	n := d.sliceLen()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		v := d.Uvarint()
		if v > math.MaxUint32 {
			d.fail(fmt.Errorf("%w: uint32 overflow", ErrCorrupt))
			return nil
		}
		out[i] = uint32(v)
	}
	if d.err != nil {
		return nil
	}
	return out
}

// SliceLen exposes validated slice-length decoding for callers encoding
// structured slices element by element.
func (d *Decoder) SliceLen() int { return d.sliceLen() }
