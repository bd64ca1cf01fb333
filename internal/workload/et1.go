package workload

import (
	"encoding/binary"
	"fmt"

	"minraid/internal/core"
)

// ET1 is a DebitCredit-style generator after the Tandem ET1 benchmark
// [Anon85] the paper planned to adopt ("in the near future, we hope to
// repeat our experiments with the well-known benchmarks ET1 from Tandem
// Corporation", §1.2).
//
// The item space is partitioned into accounts, tellers and branches; each
// transaction reads and rewrites one account, one teller and one branch —
// a fixed-shape 3-read/3-write transaction against a skew-free account
// space with strongly contended branch records, the classic bank-ledger
// shape.
//
// Layout within the database:
//
//	items [0, Branches)                        branch balances
//	items [Branches, Branches+Tellers)         teller balances
//	items [Branches+Tellers, Items)            account balances
type ET1 struct {
	Items    int
	Branches int
	Tellers  int
	// Seed roots the per-transaction random streams (see package doc).
	Seed int64
}

// NewET1 partitions items into 1 branch + 10 tellers per 100 items, the
// ET1 ratio scaled down.
func NewET1(items int, seed int64) *ET1 {
	branches := items / 100
	if branches == 0 {
		branches = 1
	}
	tellers := branches * 10
	if branches+tellers >= items {
		// Tiny databases: one branch, one teller, rest accounts.
		branches, tellers = 1, 1
	}
	return &ET1{Items: items, Branches: branches, Tellers: tellers, Seed: seed}
}

// Name implements Generator.
func (e *ET1) Name() string {
	return fmt.Sprintf("et1(items=%d,branches=%d,tellers=%d)", e.Items, e.Branches, e.Tellers)
}

// Accounts returns the number of account items.
func (e *ET1) Accounts() int { return e.Items - e.Branches - e.Tellers }

// Next implements Generator: read-modify-write of one account, one teller
// and one branch. Safe for concurrent use; deterministic in (Seed, id).
func (e *ET1) Next(id core.TxnID) []core.Op {
	rng := txnRng(e.Seed, id)
	branch := core.ItemID(rng.Intn(e.Branches))
	teller := core.ItemID(e.Branches + rng.Intn(e.Tellers))
	account := core.ItemID(e.Branches + e.Tellers + rng.Intn(e.Accounts()))
	delta := EncodeAmount(int64(rng.Intn(1999) - 999)) // -999..+999
	return []core.Op{
		core.Read(account), core.Write(account, delta),
		core.Read(teller), core.Write(teller, delta),
		core.Read(branch), core.Write(branch, delta),
	}
}

// EncodeAmount encodes a money amount as an 8-byte payload.
func EncodeAmount(v int64) []byte {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, uint64(v))
	return buf
}

// DecodeAmount decodes an EncodeAmount payload; a nil or short payload
// decodes as zero (the initial value of every copy).
func DecodeAmount(b []byte) int64 {
	if len(b) < 8 {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// Wisconsin is a Wisconsin-benchmark-flavoured generator [Bitt83], adapted
// to the key-value model: a mix of range scans (sequential reads over a
// window, the selection queries) and batch updates (sequential writes),
// exercising transactions much larger than the paper's 1..max random ones.
type Wisconsin struct {
	Items    int
	ScanLen  int // items per range scan
	BatchLen int // items per batch update
	// Seed roots the per-transaction random streams (see package doc).
	Seed int64
}

// NewWisconsin returns a generator with 10-item scans and 5-item batches.
func NewWisconsin(items int, seed int64) *Wisconsin {
	scan, batch := 10, 5
	if scan > items {
		scan = items
	}
	if batch > items {
		batch = items
	}
	return &Wisconsin{Items: items, ScanLen: scan, BatchLen: batch, Seed: seed}
}

// Name implements Generator.
func (w *Wisconsin) Name() string {
	return fmt.Sprintf("wisconsin(items=%d,scan=%d,batch=%d)", w.Items, w.ScanLen, w.BatchLen)
}

// Next implements Generator: alternating scans and batch updates. Safe
// for concurrent use; deterministic in (Seed, id).
func (w *Wisconsin) Next(id core.TxnID) []core.Op {
	rng := txnRng(w.Seed, id)
	if id%2 == 1 {
		// Range scan.
		start := rng.Intn(w.Items - w.ScanLen + 1)
		ops := make([]core.Op, 0, w.ScanLen)
		for i := 0; i < w.ScanLen; i++ {
			ops = append(ops, core.Read(core.ItemID(start+i)))
		}
		return ops
	}
	// Batch update.
	start := rng.Intn(w.Items - w.BatchLen + 1)
	ops := make([]core.Op, 0, w.BatchLen)
	for i := 0; i < w.BatchLen; i++ {
		item := core.ItemID(start + i)
		ops = append(ops, core.Write(item, Payload(id, item)))
	}
	return ops
}

var (
	_ Generator = (*Uniform)(nil)
	_ Generator = (*HotCold)(nil)
	_ Generator = (*ET1)(nil)
	_ Generator = (*Wisconsin)(nil)
)
