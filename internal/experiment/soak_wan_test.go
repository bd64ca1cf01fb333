package experiment

import (
	"testing"
	"time"

	"minraid/internal/cluster"
	"minraid/internal/policy"
)

// The WAN soak regime: compiled geo profile link delays, region-sized
// partition events, and optionally the epoch-batched commit mode. Ack
// timeouts must clear the profile's inter-region round trip — wan3 tops
// out under 10ms one-way, so 40ms leaves slack for jitter and wire cost.

func wanSoakConfig(seeds []int64, txns int) SoakConfig {
	return SoakConfig{
		Base: Config{Config: cluster.Config{
			Sites:      6,
			Items:      24,
			AckTimeout: 40 * time.Millisecond,
		}},
		Seeds:        seeds,
		TxnsPerEpoch: txns,
		Partitions:   true,
		WANProfile:   "wan3",
	}
}

// TestSoakWANRegionPartitions: the full WAN regime under stock ROWAA —
// every epoch audits clean, every fault is region-sized, and the compiled
// link matrix is fingerprinted for repro checks.
func TestSoakWANRegionPartitions(t *testing.T) {
	seeds := []int64{1, 2}
	txns := 24
	if testing.Short() {
		seeds = seeds[:1]
		txns = 16
	}
	res, err := RunSoak(wanSoakConfig(seeds, txns))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("WAN soak regression: %d audit violations:\n%s", res.Violations, res)
	}
	for _, e := range res.Epochs {
		if e.WANProfile != "wan3" {
			t.Fatalf("seed %d epoch %d lost its WAN profile: %q", e.Seed, e.Epoch, e.WANProfile)
		}
		if e.WANFingerprint == 0 {
			t.Fatalf("seed %d epoch %d has no WAN matrix fingerprint", e.Seed, e.Epoch)
		}
		if e.WANRegions == "" {
			t.Fatalf("seed %d epoch %d has no region rendering", e.Seed, e.Epoch)
		}
		if len(e.NetEvents) == 0 {
			t.Fatalf("seed %d epoch %d scheduled no region events", e.Seed, e.Epoch)
		}
	}
	// Same seed ⇒ same compiled matrix; the repro flag depends on this.
	bySeed := map[int64]uint64{}
	for _, e := range res.Epochs {
		if prev, ok := bySeed[e.Seed]; ok && prev != e.WANFingerprint {
			t.Fatalf("seed %d compiled two matrices: %016x vs %016x", e.Seed, prev, e.WANFingerprint)
		}
		bySeed[e.Seed] = e.WANFingerprint
	}
}

// TestSoakWANEpochCommit: the tentpole combination — epoch-batched commit
// under WAN delays and region partitions still converges to clean audits.
func TestSoakWANEpochCommit(t *testing.T) {
	seeds := []int64{1, 2}
	txns := 24
	if testing.Short() {
		seeds = seeds[:1]
		txns = 16
	}
	cfg := wanSoakConfig(seeds, txns)
	cfg.Base.ConcurrentTxns = 4
	cfg.Base.CommitEpoch = 2 * time.Millisecond
	res, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("WAN epoch-commit soak regression: %d audit violations:\n%s", res.Violations, res)
	}
	if res.Committed == 0 {
		t.Fatal("no transaction committed through the epoch batcher")
	}
}

// TestSoakWANDeterministic: two identical WAN soak runs produce identical
// epoch results — the property the -repro flag verifies in anger.
func TestSoakWANDeterministic(t *testing.T) {
	cfg := wanSoakConfig([]int64{7}, 16)
	a, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Epochs[0], b.Epochs[0]
	if ea.WANFingerprint != eb.WANFingerprint || ea.WANRegions != eb.WANRegions {
		t.Fatalf("WAN matrix not reproducible:\n%s %016x\n%s %016x",
			ea.WANRegions, ea.WANFingerprint, eb.WANRegions, eb.WANFingerprint)
	}
	if ea.WorkloadFingerprint != eb.WorkloadFingerprint || ea.NetFingerprint != eb.NetFingerprint {
		t.Fatal("workload or net schedule diverged between identical WAN runs")
	}
}

// TestSoakRejectsEpochWithoutRowaa: SoakConfig surfaces the site-level
// guardrail instead of failing deep inside an epoch.
func TestSoakRejectsEpochWithoutRowaa(t *testing.T) {
	cfg := wanSoakConfig([]int64{1}, 8)
	cfg.Base.Policy = policy.Quorum{}
	cfg.Base.CommitEpoch = 2 * time.Millisecond
	if _, err := RunSoak(cfg); err == nil {
		t.Fatal("soak accepted epoch commit with a quorum policy")
	}
}
