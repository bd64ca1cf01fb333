package core

import (
	"reflect"
	"testing"
)

// TestReadWriteSets pins ReadSet and WriteSet: distinct items of one kind,
// in order of first occurrence, nil when there are none — on both sides of
// the scan/map switch.
func TestReadWriteSets(t *testing.T) {
	// 40 operations (> setScanLimit): reads of 0..9 four times over in a
	// rotating order, every fourth operation a write of item i%3 instead.
	var long []Op
	var longReads, longWrites []ItemID
	seenR, seenW := map[ItemID]bool{}, map[ItemID]bool{}
	for i := 0; i < 40; i++ {
		if i%4 == 3 {
			item := ItemID(i % 3)
			long = append(long, Write(item, []byte{byte(i)}))
			if !seenW[item] {
				seenW[item] = true
				longWrites = append(longWrites, item)
			}
			continue
		}
		item := ItemID((i * 7) % 10)
		long = append(long, Read(item))
		if !seenR[item] {
			seenR[item] = true
			longReads = append(longReads, item)
		}
	}
	if len(long) <= setScanLimit {
		t.Fatalf("long list has %d ops, want > %d", len(long), setScanLimit)
	}

	v := []byte("v")
	for _, tc := range []struct {
		name          string
		ops           []Op
		reads, writes []ItemID
	}{
		{"empty", nil, nil, nil},
		{"reads only", []Op{Read(3), Read(1)}, []ItemID{3, 1}, nil},
		{"writes only", []Op{Write(2, v), Write(5, v)}, nil, []ItemID{2, 5}},
		{"duplicates keep first occurrence", []Op{Read(4), Read(2), Read(4), Read(2), Read(9)}, []ItemID{4, 2, 9}, nil},
		{"mixed kinds on one item", []Op{Read(1), Write(1, v), Read(2), Write(1, v), Write(3, v), Read(1)}, []ItemID{1, 2}, []ItemID{1, 3}},
		{"over the scan limit", long, longReads, longWrites},
	} {
		if got := ReadSet(tc.ops); !reflect.DeepEqual(got, tc.reads) {
			t.Errorf("%s: ReadSet = %v, want %v", tc.name, got, tc.reads)
		}
		if got := WriteSet(tc.ops); !reflect.DeepEqual(got, tc.writes) {
			t.Errorf("%s: WriteSet = %v, want %v", tc.name, got, tc.writes)
		}
	}
}
