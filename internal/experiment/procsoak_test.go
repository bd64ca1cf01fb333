package experiment

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"minraid/internal/cluster"
	"minraid/internal/transport"
)

// TestProcSoakCrashCycles is the acceptance pin for the process fabric: a
// soak over exec'd raidsrv sites must survive at least two SIGKILL +
// re-exec/WAL-replay/type-1 cycles with every per-epoch audit clean —
// through the drain epilogue, and with the background scrubber healing
// REDO-only recoveries instead. It builds raidsrv from source and delivers
// real signals, so it is skipped under -short and on non-Linux platforms.
func TestProcSoakCrashCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("process fabric soak skipped in -short mode")
	}
	if runtime.GOOS != "linux" {
		t.Skip("process fabric soak requires SIGKILL semantics; linux only")
	}
	for _, scrubOn := range []bool{false, true} {
		name := "drain"
		if scrubOn {
			name = "scrub"
		}
		t.Run(name, func(t *testing.T) {
			cfg := SoakConfig{
				Base: Config{Config: cluster.Config{
					Sites:      3,
					Items:      20,
					AckTimeout: 200 * time.Millisecond,
				}},
				Seeds:         []int64{1},
				EpochsPerSeed: 2,
				TxnsPerEpoch:  30,
				Fabric:        "proc",
				Scrub:         scrubOn,
				WorkDir:       t.TempDir(),
				Logf:          t.Logf,
			}
			res, err := RunSoak(cfg)
			if err != nil {
				t.Fatal(err)
			}
			kills, restarts := 0, 0
			for _, e := range res.Epochs {
				kills += e.Kills
				restarts += e.Restarts
				if !e.AuditOK {
					t.Errorf("seed %d epoch %d audit failed: %s", e.Seed, e.Epoch, e.AuditDetail)
				}
			}
			// The acceptance bar: at least two full crash cycles actually
			// happened, and they were real restarts (exec + WAL replay),
			// not skipped events.
			if kills < 2 || restarts < 2 {
				t.Fatalf("want >= 2 SIGKILL/restart cycles, got %d kills, %d restarts", kills, restarts)
			}
			if !res.OK() {
				t.Fatalf("proc soak violations:\n%s", res)
			}
			if res.Committed == 0 {
				t.Fatal("no transaction ever committed")
			}
			if scrubOn {
				// The scrubber, not the drain, did the healing.
				if res.ScrubItems == 0 {
					t.Error("scrubber refreshed no items across the crash cycles")
				}
				if res.DrainCopiers != 0 {
					t.Errorf("drain epilogue ran %d copiers with scrub on", res.DrainCopiers)
				}
			}
		})
	}
}

// TestProcSoakRejectsInProcessMechanisms pins the validation boundary:
// chaos, the per-hop delay, partitions, the WAN link matrix, epoch commit,
// the memory transport and the in-process WAL carry act on the in-process
// wire and
// must be refused under the process fabric — by one check whose error
// names every offending option — not silently ignored.
func TestProcSoakRejectsInProcessMechanisms(t *testing.T) {
	base := SoakConfig{Fabric: "proc", Seeds: []int64{1}}
	bad := []struct {
		mutate func(*SoakConfig)
		names  string
	}{
		{func(c *SoakConfig) { c.Base.Chaos = &transport.ChaosConfig{Drop: 0.1} }, "chaos"},
		{func(c *SoakConfig) { c.Base.Delay = 9 * time.Millisecond }, "-delay"},
		{func(c *SoakConfig) { c.Partitions = true }, "-partitions"},
		{func(c *SoakConfig) { c.WANProfile = "wan3" }, "-wan"},
		{func(c *SoakConfig) { c.Base.CommitEpoch = 2 * time.Millisecond }, "-commit epoch"},
		{func(c *SoakConfig) { c.Base.Transport = "memory" }, "-transport memory"},
		{func(c *SoakConfig) { c.WALDir = t.TempDir() }, "-persist"},
	}
	all := base
	for _, tc := range bad {
		cfg := base
		tc.mutate(&cfg)
		tc.mutate(&all)
		if _, err := RunSoak(cfg); err == nil || !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%s under proc fabric: err = %v, want a rejection naming it", tc.names, err)
		}
	}
	_, err := RunSoak(all)
	for _, tc := range bad {
		if err == nil || !strings.Contains(err.Error(), tc.names) {
			t.Errorf("combined rejection %v does not name %s", err, tc.names)
		}
	}
	if _, err := RunSoak(SoakConfig{Fabric: "bogus"}); err == nil {
		t.Error("unknown fabric accepted")
	}
}
