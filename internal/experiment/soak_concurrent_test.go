package experiment

import (
	"reflect"
	"testing"
	"time"

	"minraid/internal/cluster"
	"minraid/internal/transport"
	"minraid/internal/txn"
)

// concurrentSoakConfig is the full fault model under interleaved
// execution: probabilistic chaos (drops, dups, jitter) plus scheduled
// partitions, driven at per-site degree 4 through the wave-based
// open-loop issue path.
func concurrentSoakConfig(seeds []int64, txns int) SoakConfig {
	return SoakConfig{
		Base: Config{Config: cluster.Config{
			Sites:          4,
			Items:          20,
			AckTimeout:     40 * time.Millisecond,
			ConcurrentTxns: 4,
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

// TestSoakConcurrentChaosPartitions runs the concurrent regression corpus:
// degree-4 interleaved execution with chaos drops and scheduled link cuts,
// and every epoch must still audit clean — replicas identical, fail-locks
// drained. Aborts may only carry the defined retriable reasons; a lock
// wait, the one deadlock breaker, ends as a lock-wait timeout.
func TestSoakConcurrentChaosPartitions(t *testing.T) {
	seeds := []int64{1, 2, 3}
	txns := 30
	if testing.Short() {
		seeds = seeds[:2]
		txns = 20
	}
	res, err := RunSoak(concurrentSoakConfig(seeds, txns))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("concurrent soak regression: %d audit violations:\n%s", res.Violations, res)
	}
	for _, e := range res.Epochs {
		if e.Concurrency != 4 {
			t.Fatalf("seed %d epoch %d ran at degree %d, want 4", e.Seed, e.Epoch, e.Concurrency)
		}
	}
	for reason := range res.AbortReasons {
		switch reason {
		case txn.AbortLockTimeout, txn.AbortParticipantDown,
			txn.AbortSiteDown, txn.AbortStaleSession, txn.AbortNoDonor,
			txn.AbortDonorDown, txn.AbortWriteUnavailable:
		default:
			t.Errorf("unexpected abort reason under concurrency: %q", reason)
		}
	}
}

// TestSoakConcurrentDeterministic is the concurrent-mode -repro witness:
// the same seed must issue the bit-identical transaction stream (IDs,
// coordinators, operations — the workload fingerprint) against the
// bit-identical fail/recover and partition schedules, across two full
// runs. Outcomes and per-link chaos counters are allowed to race — the
// injected world is deterministic even when the execution inside it is
// not.
func TestSoakConcurrentDeterministic(t *testing.T) {
	cfg := concurrentSoakConfig([]int64{1}, 20)
	a, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Epochs[0], b.Epochs[0]
	if ea.WorkloadFingerprint == 0 {
		t.Fatal("epoch has no workload fingerprint")
	}
	if ea.WorkloadFingerprint != eb.WorkloadFingerprint {
		t.Fatalf("same seed issued different workloads: %016x vs %016x",
			ea.WorkloadFingerprint, eb.WorkloadFingerprint)
	}
	if !reflect.DeepEqual(ea.FailEvents, eb.FailEvents) {
		t.Fatalf("same seed produced different failure schedules:\nfirst: %v\nrerun: %v",
			ea.FailEvents, eb.FailEvents)
	}
	if !reflect.DeepEqual(ea.NetEvents, eb.NetEvents) || ea.NetFingerprint != eb.NetFingerprint {
		t.Fatalf("same seed produced different partition schedules:\nfirst: %016x %v\nrerun: %016x %v",
			ea.NetFingerprint, ea.NetEvents, eb.NetFingerprint, eb.NetEvents)
	}
	if len(ea.FailEvents) == 0 {
		t.Fatal("epoch scheduled no failure events — the corpus is not exercising recovery")
	}
}
