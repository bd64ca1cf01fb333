package experiment

import (
	"testing"
	"time"

	"minraid/internal/cluster"
	"minraid/internal/policy"
	"minraid/internal/transport"
)

// partialSoakConfig is the partial-replication regression corpus: chaos
// and deterministic partitions over a cluster where each item lives on
// `degree` of the sites (round-robin placement). Partial replication
// forces the paper's serial processing; the harness picks that up from
// the degree automatically.
func partialSoakConfig(seeds []int64, txns, sites, items, degree int) SoakConfig {
	return SoakConfig{
		Base: Config{Config: cluster.Config{
			Sites:             sites,
			Items:             items,
			AckTimeout:        40 * time.Millisecond,
			ReplicationDegree: degree,
			Chaos: &transport.ChaosConfig{
				Drop:      0.03,
				Dup:       0.03,
				MaxJitter: 4 * time.Millisecond,
			},
		}},
		Seeds:        seeds,
		TxnsPerEpoch: txns,
		Partitions:   true,
	}
}

// TestSoakPartialReplication: ROWAA over a degree-2-of-4 placement must
// audit clean every epoch under chaos plus partitions. The audit here is
// the sparse one — hosted-only dumps judged against the placement — so a
// copy materializing on a non-hosting site, or a stray fail-lock bit for
// one, fails the epoch.
func TestSoakPartialReplication(t *testing.T) {
	seeds := []int64{1, 2, 3}
	txns := 30
	if testing.Short() {
		seeds = seeds[:2]
		txns = 20
	}
	res, err := RunSoak(partialSoakConfig(seeds, txns, 4, 20, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("partial soak regression: %d audit violations:\n%s", res.Violations, res)
	}
	total := transport.LinkStats{}
	for _, e := range res.Epochs {
		total.Add(e.ChaosTotal())
	}
	if total.Dropped == 0 {
		t.Fatalf("chaos never fired: %+v", total)
	}
	if res.PartitionTxns == 0 {
		t.Fatal("no transaction ran while a link was down")
	}
}

// TestSoakPartialQuorum: quorum consensus with per-item quorum sizing
// over a degree-2-of-4 placement. Every quorum is sized from the item's
// two copies (write 2, read 1), so the epoch-end quorum audit must find
// each item's read quorum intersecting its fresh copies.
func TestSoakPartialQuorum(t *testing.T) {
	seeds := []int64{1, 2}
	txns := 30
	if testing.Short() {
		txns = 20
	}
	cfg := partialSoakConfig(seeds, txns, 4, 20, 2)
	cfg.Base.Policy = policy.Quorum{}
	res, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("partial quorum soak regression: %d audit violations:\n%s", res.Violations, res)
	}
}

// TestSoakPartialReplicationAtScale is the acceptance run: 10^5 items at
// degree 3 over 5 sites, chaos plus partitions, per-epoch sparse audits.
// The point is the complexity class — placement-aware audits and
// reconciliation touch O(items x degree) copies, not O(items x sites) —
// so a hundred thousand items stays test-suite fast.
func TestSoakPartialReplicationAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("10^5-item soak skipped in -short mode")
	}
	res, err := RunSoak(partialSoakConfig([]int64{1}, 40, 5, 100_000, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("at-scale partial soak: %d audit violations:\n%s", res.Violations, res)
	}
}
