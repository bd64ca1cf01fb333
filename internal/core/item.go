package core

import (
	"fmt"
	"slices"
)

// OpKind distinguishes the two operation types of the paper's workload
// model: "an operation was defined to be a read or write of a database data
// item" (§1.2).
type OpKind uint8

const (
	// OpRead reads one data item.
	OpRead OpKind = iota
	// OpWrite overwrites one data item with a new value.
	OpWrite
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is a single operation of a database transaction.
type Op struct {
	Kind  OpKind
	Item  ItemID
	Value []byte // write payload; nil for reads
}

// Read returns a read operation on item.
func Read(item ItemID) Op { return Op{Kind: OpRead, Item: item} }

// Write returns a write operation setting item to value.
func Write(item ItemID, value []byte) Op { return Op{Kind: OpWrite, Item: item, Value: value} }

// String implements fmt.Stringer.
func (o Op) String() string {
	if o.Kind == OpRead {
		return fmt.Sprintf("r(%d)", o.Item)
	}
	return fmt.Sprintf("w(%d,%dB)", o.Item, len(o.Value))
}

// WriteSet returns the distinct items written by ops, in first-written
// order.
func WriteSet(ops []Op) []ItemID { return itemSet(ops, OpWrite) }

// ReadSet returns the distinct items read by ops, in first-read order.
func ReadSet(ops []Op) []ItemID { return itemSet(ops, OpRead) }

// setScanLimit is the operation count up to which itemSet finds duplicates
// by scanning its result (transactions have about ten operations); longer
// lists use a map.
const setScanLimit = 32

// itemSet returns the distinct items of the operations of the given kind,
// in order of first occurrence; nil if there are none.
func itemSet(ops []Op, kind OpKind) []ItemID {
	n := 0
	for i := range ops {
		if ops[i].Kind == kind {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]ItemID, 0, n)
	var seen map[ItemID]bool
	if len(ops) > setScanLimit {
		seen = make(map[ItemID]bool, n)
	}
	for i := range ops {
		if ops[i].Kind != kind {
			continue
		}
		item := ops[i].Item
		if seen != nil {
			if seen[item] {
				continue
			}
			seen[item] = true
		} else if slices.Contains(out, item) {
			continue
		}
		out = append(out, item)
	}
	return out
}

// ItemVersion is a versioned copy of a data item as shipped between sites:
// in phase-one copy updates, in copier-transaction responses, and in dump
// replies used by the consistency audit. Version is the TxnID of the
// transaction that wrote the value; under the system's serial processing it
// totally orders writes, so two copies of an item are consistent exactly
// when their versions are equal.
type ItemVersion struct {
	Item    ItemID
	Version TxnID
	Value   []byte
}

// String implements fmt.Stringer.
func (iv ItemVersion) String() string {
	return fmt.Sprintf("item %d v%d (%dB)", iv.Item, iv.Version, len(iv.Value))
}
