package wire

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	e.Uint8(0xAB)
	e.Bool(true)
	e.Bool(false)
	e.Uint16(0xBEEF)
	e.Uint32(0xDEADBEEF)
	e.Uint64(math.MaxUint64)
	e.Uvarint(300)
	e.Varint(-42)
	e.Float64(3.14159)
	e.String("mini-RAID")
	e.PutBytes([]byte{1, 2, 3})
	e.PutBytes(nil)

	d := NewDecoder(e.Bytes())
	if got := d.Uint8(); got != 0xAB {
		t.Errorf("Uint8 = %#x", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := d.Uint16(); got != 0xBEEF {
		t.Errorf("Uint16 = %#x", got)
	}
	if got := d.Uint32(); got != 0xDEADBEEF {
		t.Errorf("Uint32 = %#x", got)
	}
	if got := d.Uint64(); got != math.MaxUint64 {
		t.Errorf("Uint64 = %#x", got)
	}
	if got := d.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := d.Varint(); got != -42 {
		t.Errorf("Varint = %d", got)
	}
	if got := d.Float64(); got != 3.14159 {
		t.Errorf("Float64 = %v", got)
	}
	if got := d.String(); got != "mini-RAID" {
		t.Errorf("String = %q", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := d.Bytes(); got != nil {
		t.Errorf("empty Bytes = %v, want nil", got)
	}
	if err := d.Finish(); err != nil {
		t.Errorf("Finish: %v", err)
	}
}

func TestSliceRoundTrip(t *testing.T) {
	e := NewEncoder(0)
	u64 := []uint64{0, 1, math.MaxUint64, 12345}
	u32 := []uint32{7, 0, math.MaxUint32}
	e.Uint64s(u64)
	e.Uint32s(u32)
	e.Uint64s(nil)
	d := NewDecoder(e.Bytes())
	got64 := d.Uint64s()
	got32 := d.Uint32s()
	gotNil := d.Uint64s()
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(got64) != len(u64) {
		t.Fatalf("Uint64s = %v", got64)
	}
	for i := range u64 {
		if got64[i] != u64[i] {
			t.Errorf("Uint64s[%d] = %d, want %d", i, got64[i], u64[i])
		}
	}
	for i := range u32 {
		if got32[i] != u32[i] {
			t.Errorf("Uint32s[%d] = %d, want %d", i, got32[i], u32[i])
		}
	}
	if gotNil != nil {
		t.Errorf("nil slice decoded as %v", gotNil)
	}
}

func TestDecoderErrorSticky(t *testing.T) {
	d := NewDecoder([]byte{1})
	_ = d.Uint64() // short
	if d.Err() == nil {
		t.Fatal("short read did not set error")
	}
	// Every later read is a zero-value no-op.
	if d.Uint8() != 0 || d.String() != "" || d.Uvarint() != 0 {
		t.Error("reads after error returned non-zero values")
	}
	if d.Finish() == nil {
		t.Error("Finish nil after error")
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	e := NewEncoder(0)
	e.Uint8(1)
	e.Uint8(2)
	d := NewDecoder(e.Bytes())
	d.Uint8()
	if err := d.Finish(); err == nil {
		t.Error("Finish accepted trailing bytes")
	}
}

func TestBoolRejectsGarbage(t *testing.T) {
	d := NewDecoder([]byte{7})
	d.Bool()
	if d.Err() == nil {
		t.Error("Bool accepted byte 7")
	}
}

func TestOversizedStringRejected(t *testing.T) {
	e := NewEncoder(0)
	e.Uvarint(MaxBytesLen + 1)
	d := NewDecoder(e.Bytes())
	_ = d.String()
	if d.Err() == nil {
		t.Error("oversized string length accepted")
	}
	d2 := NewDecoder(e.Bytes())
	_ = d2.Bytes()
	if d2.Err() == nil {
		t.Error("oversized byte length accepted")
	}
}

func TestOversizedSliceRejected(t *testing.T) {
	e := NewEncoder(0)
	e.Uvarint(MaxSliceLen + 1)
	d := NewDecoder(e.Bytes())
	d.Uint64s()
	if d.Err() == nil {
		t.Error("oversized slice length accepted")
	}
}

func TestUint32OverflowRejected(t *testing.T) {
	e := NewEncoder(0)
	e.Uvarint(1)
	e.Uvarint(uint64(math.MaxUint32) + 1)
	d := NewDecoder(e.Bytes())
	d.Uint32s()
	if d.Err() == nil {
		t.Error("uint32 overflow accepted")
	}
}

func TestBytesIsCopy(t *testing.T) {
	e := NewEncoder(0)
	e.PutBytes([]byte{9, 9})
	buf := e.Bytes()
	d := NewDecoder(buf)
	got := d.Bytes()
	buf[len(buf)-1] = 0
	if got[1] != 9 {
		t.Error("decoded bytes alias the input buffer")
	}
}

func TestBytesViewAliasesClipped(t *testing.T) {
	e := NewEncoder(0)
	e.PutBytes([]byte{9, 9})
	e.Uint8(7)
	buf := e.Bytes()
	d := NewDecoder(buf)
	got := d.BytesView()
	if len(got) != 2 || cap(got) != 2 {
		t.Fatalf("view len %d cap %d, want 2 and 2", len(got), cap(got))
	}
	buf[2] = 0
	if got[1] != 0 {
		t.Error("view does not alias the input buffer")
	}
	_ = append(got, 1)
	if d.Uint8() != 7 {
		t.Error("append to a view overwrote the next field")
	}
	d.Reset([]byte{1})
	if d.Err() != nil || d.BytesView() != nil || d.Err() == nil {
		t.Error("Reset onto a truncated string: want a nil view and a sticky error")
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(8)
	e.Uint64(1)
	e.Reset()
	if e.Len() != 0 {
		t.Error("Reset did not clear")
	}
	e.Uint8(5)
	if e.Len() != 1 || e.Bytes()[0] != 5 {
		t.Error("encoder unusable after Reset")
	}
}

// Property: arbitrary values survive an encode/decode round trip.
func TestQuickRoundTrip(t *testing.T) {
	prop := func(a uint64, b int64, s string, bs []byte, u64 []uint64) bool {
		e := NewEncoder(0)
		e.Uvarint(a)
		e.Varint(b)
		e.String(s)
		e.PutBytes(bs)
		e.Uint64s(u64)
		d := NewDecoder(e.Bytes())
		if d.Uvarint() != a || d.Varint() != b || d.String() != s {
			return false
		}
		gb := d.Bytes()
		if !bytes.Equal(gb, bs) && !(len(gb) == 0 && len(bs) == 0) {
			return false
		}
		g64 := d.Uint64s()
		if len(g64) != len(u64) && !(len(g64) == 0 && len(u64) == 0) {
			return false
		}
		for i := range g64 {
			if g64[i] != u64[i] {
				return false
			}
		}
		return d.Finish() == nil
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: random byte soup never panics the decoder; it either decodes or
// errors.
func TestQuickNoPanic(t *testing.T) {
	prop := func(buf []byte) bool {
		d := NewDecoder(buf)
		_ = d.Uvarint()
		_ = d.String()
		_ = d.Uint64s()
		_ = d.Bool()
		_ = d.Uint32s()
		_ = d.Finish()
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
