package experiment

import (
	"reflect"
	"testing"
	"time"

	"minraid/internal/cluster"
	"minraid/internal/core"
	"minraid/internal/failure"
	"minraid/internal/policy"
	"minraid/internal/transport"
)

// partitionSoakConfig is the partition regression corpus: link events
// merged into the fail/recover schedule, with no
// probabilistic chaos — the cuts themselves are the fault under test.
func partitionSoakConfig(seeds []int64, txns int) SoakConfig {
	return SoakConfig{
		Base: Config{Config: cluster.Config{
			Sites:      4,
			Items:      20,
			AckTimeout: 40 * time.Millisecond,
		}},
		Seeds:        seeds,
		TxnsPerEpoch: txns,
		Partitions:   true,
	}
}

// TestPartitionSoakROWAA: under ROWAA every epoch must end with a clean
// audit even though partitions let both sides of a cut commit divergent
// versions — heal-time reconciliation collects the divergence into
// fail-locks and the drain refreshes the stale copies.
func TestPartitionSoakROWAA(t *testing.T) {
	seeds := []int64{1, 2, 3}
	txns := 30
	if testing.Short() {
		seeds = seeds[:2]
		txns = 20
	}
	res, err := RunSoak(partitionSoakConfig(seeds, txns))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("partition soak regression: %d audit violations:\n%s", res.Violations, res)
	}
	if res.PartitionTxns == 0 {
		t.Fatal("no transaction ran while a link was down — the scheduler never fired")
	}
	for _, e := range res.Epochs {
		if len(e.NetEvents) == 0 {
			t.Fatalf("seed %d epoch %d has no partition events", e.Seed, e.Epoch)
		}
		if e.NetFingerprint == 0 {
			t.Fatalf("seed %d epoch %d has no schedule fingerprint", e.Seed, e.Epoch)
		}
		if e.ChaosTotal().Cut == 0 {
			t.Fatalf("seed %d epoch %d cut no messages despite events %v", e.Seed, e.Epoch, e.NetEvents)
		}
	}
}

// TestPartitionSoakQuorum: quorum consensus refuses the minority side, so
// partitions never create divergence — the quorum audit (read quorums
// intersect the fresh copies) must pass with no fail-lock edits at all.
func TestPartitionSoakQuorum(t *testing.T) {
	seeds := []int64{1, 2}
	txns := 30
	if testing.Short() {
		txns = 20
	}
	cfg := partitionSoakConfig(seeds, txns)
	cfg.Base.Policy = policy.Quorum{}
	res, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("quorum partition soak: %d audit violations:\n%s", res.Violations, res)
	}
	if res.LocksSet != 0 || res.LocksCleared != 0 {
		t.Fatalf("reconciliation edited fail-locks under quorum: +%d/-%d", res.LocksSet, res.LocksCleared)
	}
	if res.PartitionTxns == 0 {
		t.Fatal("no partition-time transactions ran")
	}
}

// TestPartitionSoakWithChaos layers probabilistic drop/dup/jitter on top
// of the scheduled cuts — the full fault model at once.
func TestPartitionSoakWithChaos(t *testing.T) {
	seeds := []int64{1, 2}
	txns := 25
	if testing.Short() {
		seeds = seeds[:1]
		txns = 15
	}
	cfg := partitionSoakConfig(seeds, txns)
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
		t.Fatalf("partition+chaos soak: %d audit violations:\n%s", res.Violations, res)
	}
}

// TestPartitionSoakReproducible runs one partitioned epoch twice and
// requires the identical partition event stream, schedule fingerprint and
// per-link decision counters (including Cut) — the determinism witness
// behind `soak -partitions -repro`. Serial mode: the per-link counter
// comparison only holds without goroutine races (see
// TestSoakConcurrentDeterministic for the concurrent-mode witness).
func TestPartitionSoakReproducible(t *testing.T) {
	cfg := partitionSoakConfig([]int64{1}, 20)
	cfg.Base.ConcurrentTxns = 1
	a, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Epochs[0], b.Epochs[0]
	if !reflect.DeepEqual(ea.NetEvents, eb.NetEvents) {
		t.Fatalf("same seed produced different partition events:\nfirst: %v\nrerun: %v", ea.NetEvents, eb.NetEvents)
	}
	if ea.NetFingerprint != eb.NetFingerprint {
		t.Fatalf("schedule fingerprints differ: %#x vs %#x", ea.NetFingerprint, eb.NetFingerprint)
	}
	if !reflect.DeepEqual(ea.Chaos, eb.Chaos) {
		t.Fatalf("same seed produced different link stats:\nfirst: %+v\nrerun: %+v", ea.Chaos, eb.Chaos)
	}
}

// TestSoakWALPersistence carries each site's write-ahead-logged store
// across epochs of one seed: an epoch boundary is a whole-system crash
// and restart, and every restarted epoch must still audit clean against
// the state the previous epoch left on disk.
func TestSoakWALPersistence(t *testing.T) {
	cfg := partitionSoakConfig([]int64{1}, 20)
	cfg.EpochsPerSeed = 3
	cfg.WALDir = t.TempDir()
	if testing.Short() {
		cfg.EpochsPerSeed = 2
	}
	res, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("persistent soak: %d audit violations:\n%s", res.Violations, res)
	}
	if len(res.Epochs) != cfg.EpochsPerSeed {
		t.Fatalf("ran %d epochs, want %d", len(res.Epochs), cfg.EpochsPerSeed)
	}
}

// TestPartitionSoakTCP runs the partitioned soak over the loopback TCP
// fabric: scheduled cuts and reconciliation must behave identically on a
// real wire with framing, reconnection and receiver-side dedup.
func TestPartitionSoakTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP soak is slow under -short")
	}
	cfg := partitionSoakConfig([]int64{1}, 20)
	cfg.Base.Transport = "tcp"
	res, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("TCP partition soak: %d audit violations:\n%s", res.Violations, res)
	}
	if res.PartitionTxns == 0 {
		t.Fatal("no partition-time transactions ran over TCP")
	}
}

// TestPartitionStudyViaLinkSchedule reproduces the static
// RunPartitionStudy scenario — ROWAA splits {0} | {1,2}, both sides
// commit, replicas diverge — as a one-event link schedule driven through
// the schedule's own Topology, then heals and reconciles it back to a
// clean audit. The hand-written study and the schedule are the same
// experiment.
func TestPartitionStudyViaLinkSchedule(t *testing.T) {
	const txns = 6
	cfg := Config{Config: cluster.Config{Sites: 3, Items: 20, AckTimeout: 40 * time.Millisecond}}.withDefaults(3, 20, 5)
	c, err := cluster.New(cfg.Config)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sched := failure.Schedule{
		Txns: txns,
		Events: []failure.Event{{
			BeforeTxn: 1,
			Kind:      failure.Partition,
			Groups: []failure.Group{
				{Name: "A", Sites: []core.SiteID{0}},
				{Name: "B", Sites: []core.SiteID{1, 2}},
			},
		}},
	}
	if err := sched.Validate(3); err != nil {
		t.Fatal(err)
	}
	top := failure.NewTopology(3)
	for _, e := range sched.EventsBefore(1) {
		top.Drive(c, e)
	}
	if top.Reachable(0, 1) || top.Reachable(0, 2) || !top.Reachable(1, 2) {
		t.Fatal("one-event partition schedule compiled to the wrong topology")
	}

	minority, majority, err := partitionDrive2(c, txns)
	if err != nil {
		t.Fatal(err)
	}
	if minority == 0 || majority == 0 {
		t.Fatalf("ROWAA split brain did not form: minority=%d majority=%d commits", minority, majority)
	}
	audit, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if audit.OK() {
		t.Fatal("audit missed the divergence the partition created")
	}

	top.HealAll(c)
	if top.Active() {
		t.Fatal("topology still active after HealAll")
	}
	trueUp := []bool{true, true, true}
	rep, err := c.ReconcileSplitBrain(trueUp, cfg.AckTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected() {
		t.Fatalf("reconciliation missed the split brain: %s", rep)
	}
	if _, remaining, err := c.DrainFailLocks(trueUp, 8); err != nil {
		t.Fatal(err)
	} else if remaining != 0 {
		t.Fatalf("%d fail-locks left after drain", remaining)
	}
	audit, err = c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !audit.OK() {
		t.Fatalf("post-heal audit failed: %s", audit)
	}
}

// partitionDrive2 mirrors partitionDrive but over scheduler-driven cuts:
// writes item 0 on both sides of the {0} | {1,2} split.
func partitionDrive2(c *cluster.Cluster, txns int) (minority, majority int, err error) {
	for i := 0; i < txns; i++ {
		id := c.NextTxnID()
		res, err := c.ExecTxn(0, id, []core.Op{core.Write(0, minorityValue(i))})
		if err != nil {
			return 0, 0, err
		}
		if res.Committed {
			minority++
		}
		id = c.NextTxnID()
		res, err = c.ExecTxn(1, id, []core.Op{core.Write(0, majorityValue(i))})
		if err != nil {
			return 0, 0, err
		}
		if res.Committed {
			majority++
		}
	}
	return minority, majority, nil
}
