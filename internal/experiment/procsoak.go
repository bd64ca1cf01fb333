package experiment

import (
	"fmt"
	"path/filepath"
	"strings"

	"minraid/internal/deploy"
)

// validateProc rejects the soak options the process fabric cannot honor.
// They all act on the in-process wire or its stores — chaos, link cuts and
// the WAN link matrix live inside the memory/loopback transports (a real
// wire has its own weather), the epoch batcher and the store carry are
// cluster.Config knobs a ClusterSpec does not express — and a process
// fleet has neither. Everything else, the scrubber included, runs through
// the managing site and works on any fabric.
func (c SoakConfig) validateProc() error {
	var needWire []string
	for _, opt := range []struct {
		set  bool
		name string
	}{
		{c.Chaos.Active(), "chaos (-drop/-dup/-jitter)"},
		{c.Partitions, "-partitions"},
		{c.WANProfile != "", "-wan"},
		{c.CommitEpoch > 0, "-commit epoch"},
		{c.Transport != "" && c.Transport != "tcp", "-transport " + c.Transport},
		{c.WALDir != "", "-persist"},
	} {
		if opt.set {
			needWire = append(needWire, opt.name)
		}
	}
	if len(needWire) > 0 {
		return fmt.Errorf("experiment: %s need the in-process wire; -fabric proc runs real processes over real TCP with WALs under its own work dir",
			strings.Join(needWire, ", "))
	}
	return nil
}

// procFleets prepares RunSoak's Fabric "proc": it validates the options,
// resolves the work dir and the raidsrv binary once, and returns the
// per-seed fleet launcher and the cleanup. Each site of a fleet is a
// raidsrv OS process, every scheduled failure a SIGKILL — everything
// volatile at that site genuinely dies: lock tables, fail-lock tables,
// session vector, socket state — and every scheduled recovery the
// production path end to end: exec, WAL replay, persisted-session resume,
// down-boot, then the type-1 control transaction against a live donor.
func procFleets(cfg SoakConfig) (func(seed int64) (deploy.Fabric, error), func(), error) {
	if err := cfg.validateProc(); err != nil {
		return nil, nil, err
	}
	workRoot, cleanup, err := dirOrTemp(cfg.WorkDir, "minraid-procsoak-")
	if err != nil {
		return nil, nil, err
	}
	binary := cfg.RaidsrvBin
	if binary == "" {
		b, err := deploy.BuildRaidsrv(workRoot)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		binary = b
	}

	base := cfg.Base
	policyName := "rowaa"
	if base.Policy != nil {
		policyName = base.Policy.Name()
	}
	concurrent := 0
	if cfg.Concurrency > 1 {
		concurrent = cfg.Concurrency
	}
	boot := func(seed int64) (deploy.Fabric, error) {
		addrs, err := deploy.FreeLoopbackAddrs(base.Sites)
		if err != nil {
			return nil, err
		}
		return deploy.NewProcFabric(deploy.ProcConfig{
			Spec: &deploy.ClusterSpec{
				Addrs:             addrs,
				Items:             base.Items,
				PolicyName:        policyName,
				ReplicationDegree: base.ReplicationDegree,
				Concurrent:        concurrent,
				AckTimeout:        deploy.Duration(base.AckTimeout),
				LockWaitBudget:    deploy.Duration(cfg.LockWaitBudget),
				EnableType3:       base.EnableType3,
			},
			Binary:  binary,
			WorkDir: filepath.Join(workRoot, fmt.Sprintf("seed%d", seed)),
		})
	}
	return boot, cleanup, nil
}
