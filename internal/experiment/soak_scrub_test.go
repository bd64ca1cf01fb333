package experiment

import (
	"testing"
	"time"

	"minraid/internal/cluster"
	"minraid/internal/transport"
)

// scrubSoakConfig is the continuous-heal regression corpus: instant
// REDO-only recovery with the background scrubber healing alongside the
// workload, instead of the DrainFailLocks epilogue.
func scrubSoakConfig(seeds []int64, txns int) SoakConfig {
	return SoakConfig{
		Base: Config{Config: cluster.Config{
			Sites:      4,
			Items:      20,
			AckTimeout: 40 * time.Millisecond,
		}},
		Seeds:        seeds,
		TxnsPerEpoch: txns,
		Scrub:        true,
	}
}

// TestSoakScrubFailRecover: fail/recover schedules only — every epoch
// must reach zero truly-up fail-locks through the scrubber (no drain
// passes run at all in scrub mode), audit clean, and report its heal
// time and scrub work.
func TestSoakScrubFailRecover(t *testing.T) {
	seeds := []int64{1, 2, 3}
	txns := 30
	if testing.Short() {
		seeds = seeds[:2]
		txns = 20
	}
	res, err := RunSoak(scrubSoakConfig(seeds, txns))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("scrub soak: %d audit violations:\n%s", res.Violations, res)
	}
	for _, e := range res.Epochs {
		if e.LocksAfterDrain != 0 {
			t.Errorf("seed %d epoch %d: %d fail-locks left after scrub heal", e.Seed, e.Epoch, e.LocksAfterDrain)
		}
		if e.HealTime <= 0 {
			t.Errorf("seed %d epoch %d reported no heal time", e.Seed, e.Epoch)
		}
		if e.ScrubPasses == 0 {
			t.Errorf("seed %d epoch %d: scrubber never scanned", e.Seed, e.Epoch)
		}
		if e.DrainCopiers != 0 {
			t.Errorf("seed %d epoch %d ran %d drain copiers in scrub mode", e.Seed, e.Epoch, e.DrainCopiers)
		}
	}
}

// TestSoakScrubChaosPartitions is the acceptance run: chaos and
// scheduled partitions on top of scrub mode. Split-brain divergence is
// collected into fail-locks at reconciliation and the scrubber — not a
// drain epilogue — refreshes the stale copies to a clean audit.
func TestSoakScrubChaosPartitions(t *testing.T) {
	seeds := []int64{1, 2}
	txns := 25
	if testing.Short() {
		seeds = seeds[:1]
		txns = 15
	}
	cfg := scrubSoakConfig(seeds, txns)
	cfg.Partitions = true
	cfg.Base.Chaos = &transport.ChaosConfig{
		Drop:      0.03,
		Dup:       0.03,
		MaxJitter: 4 * time.Millisecond,
	}
	res, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("scrub+chaos+partition soak: %d audit violations:\n%s", res.Violations, res)
	}
	scrubbed := 0
	for _, e := range res.Epochs {
		if e.LocksAfterDrain != 0 {
			t.Errorf("seed %d epoch %d: %d fail-locks left after scrub heal", e.Seed, e.Epoch, e.LocksAfterDrain)
		}
		if e.HealTime <= 0 {
			t.Errorf("seed %d epoch %d reported no heal time", e.Seed, e.Epoch)
		}
		scrubbed += e.ScrubItems
	}
	if scrubbed == 0 {
		t.Error("no epoch scrubbed a single item under chaos+partitions")
	}
}

// TestSoakScrubRateLimited bounds the copier budget and still requires
// convergence — the throttle slows the heal, it must not prevent it.
func TestSoakScrubRateLimited(t *testing.T) {
	cfg := scrubSoakConfig([]int64{1}, 20)
	cfg.ScrubRate = 200
	cfg.ScrubBatch = 4
	res, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("rate-limited scrub soak: %d audit violations:\n%s", res.Violations, res)
	}
	for _, e := range res.Epochs {
		if e.LocksAfterDrain != 0 {
			t.Errorf("seed %d epoch %d: %d fail-locks left", e.Seed, e.Epoch, e.LocksAfterDrain)
		}
	}
}
