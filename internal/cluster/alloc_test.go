package cluster

import (
	"runtime"
	"testing"

	"minraid/internal/core"
)

// serialWorkload is the paper's serial regime at its smallest: 4 fully
// replicated sites processing one transaction at a time for one client.
// Transaction k has 1 + k mod 10 operations, alternating write and read
// (so every transaction writes at least once), each write a 64-byte value.
// The operation lists are built up front, so a measurement counts what the
// system allocates, not what the driver does.
type serialWorkload struct {
	c   *Cluster
	ops [][]core.Op
	k   int
}

func newSerialWorkload(tb testing.TB) *serialWorkload {
	tb.Helper()
	const items = 100
	c, err := New(Config{Sites: 4, Items: items})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	w := &serialWorkload{c: c}
	for k := 0; k < 10; k++ {
		var ops []core.Op
		for j := 0; j <= k; j++ {
			item := core.ItemID((7*k + 13*j) % items)
			if j%2 == 0 {
				v := make([]byte, 64)
				v[0], v[1] = byte(k), byte(j)
				ops = append(ops, core.Write(item, v))
			} else {
				ops = append(ops, core.Read(item))
			}
		}
		w.ops = append(w.ops, ops)
	}
	return w
}

// next runs one transaction and fails tb unless it commits.
func (w *serialWorkload) next(tb testing.TB) {
	ops := w.ops[w.k%len(w.ops)]
	w.k++
	res, err := w.c.ExecTxn(core.SiteID(w.k%4), w.c.NextTxnID(), ops)
	if err != nil {
		tb.Fatal(err)
	}
	if !res.Committed {
		tb.Fatalf("txn %d aborted: %s", res.Txn, res.AbortReason)
	}
}

// BenchmarkTxnSerial measures one serial write transaction end to end on
// the memory wire: client request, copier check, reads, both commit phases
// to three participants, and the result.
func BenchmarkTxnSerial(b *testing.B) {
	w := newSerialWorkload(b)
	for i := 0; i < 20; i++ {
		w.next(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.next(b)
	}
}

// TestSerialWriteAllocBudget pins what one serial write transaction costs
// the heap, across every site, the manager and the wire: at most
// allocBudget allocations and byteBudget bytes, averaged over the ten
// transaction shapes. Garbage is the largest single cost of the paper's
// serial regime on one processor, so a change that adds allocations per
// message or per transaction shows here before it shows as throughput.
func TestSerialWriteAllocBudget(t *testing.T) {
	const (
		allocBudget = 140
		byteBudget  = 9 << 10
		runs        = 200 // a multiple of the ten shapes, so each weighs the same
	)
	w := newSerialWorkload(t)
	for i := 0; i < 20; i++ {
		w.next(t)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { w.next(t) })
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call before the measured ones.
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("a serial write transaction: %.0f allocations, %.0f bytes", allocs, bytes)
	if allocs > allocBudget {
		t.Errorf("a serial write transaction allocates %.0f times, budget %d", allocs, allocBudget)
	}
	if bytes > byteBudget {
		t.Errorf("a serial write transaction allocates %.0f bytes, budget %d", bytes, byteBudget)
	}
}
