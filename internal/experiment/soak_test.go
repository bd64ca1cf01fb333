package experiment

import (
	"reflect"
	"testing"
	"time"

	"minraid/internal/cluster"
	"minraid/internal/transport"
)

// soakTestConfig is the regression corpus configuration: small epochs,
// fast timeouts, fault rates aggressive enough to exercise false failure
// declarations, duplicates and recovery retries.
func soakTestConfig(seeds []int64, txns int) SoakConfig {
	return SoakConfig{
		Base: Config{Config: cluster.Config{
			Sites:      4,
			Items:      20,
			AckTimeout: 40 * time.Millisecond,
			Chaos: &transport.ChaosConfig{
				Drop:      0.03,
				Dup:       0.03,
				MaxJitter: 4 * time.Millisecond,
			},
		}},
		Seeds:        seeds,
		TxnsPerEpoch: txns,
	}
}

// TestSoakKnownGoodSeeds is the chaos regression corpus: seeds that have
// audited clean must keep auditing clean — a regression in the ack-timeout
// or announce machinery, the chaos layer, or the repair policy shows up as
// an audit violation or an unexplained error here.
func TestSoakKnownGoodSeeds(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	txns := 25
	if testing.Short() {
		seeds = seeds[:2]
		txns = 15
	}
	res, err := RunSoak(soakTestConfig(seeds, txns))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("soak regression: %d audit violations:\n%s", res.Violations, res)
	}
	if res.Txns != len(seeds)*txns {
		t.Fatalf("ran %d txns, want %d", res.Txns, len(seeds)*txns)
	}
	total := transport.LinkStats{}
	for _, e := range res.Epochs {
		total.Add(e.ChaosTotal())
	}
	if total.Dropped == 0 || total.Duplicated == 0 {
		t.Fatalf("chaos never fired — the corpus is not exercising faults: %+v", total)
	}
}

// TestSoakEpochReproducible runs one epoch twice and requires identical
// per-link chaos decisions — the end-to-end determinism the transport
// layer promises, verified through the whole cluster stack. Serial mode
// only: goroutine interleavings under concurrency reorder per-link
// consumption of the chaos streams, so the bit-level counter comparison is
// a serial-processing property (the concurrent witness is
// TestSoakConcurrentDeterministic).
func TestSoakEpochReproducible(t *testing.T) {
	cfg := soakTestConfig([]int64{1}, 15)
	cfg.Base.ConcurrentTxns = 1
	a, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Epochs[0].Chaos, b.Epochs[0].Chaos) {
		t.Fatalf("same seed produced different chaos decisions:\nfirst: %+v\nrerun: %+v",
			a.Epochs[0].Chaos, b.Epochs[0].Chaos)
	}
}
