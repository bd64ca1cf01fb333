package deploy

import (
	"fmt"

	"minraid/internal/cluster"
	"minraid/internal/core"
	"minraid/internal/msg"
)

// Fabric abstracts how a fleet of database sites is deployed, failed and
// recovered. Two implementations exist:
//
//   - LocalFabric: sites are goroutines of one cluster.Cluster. Kill is
//     the paper's simulated failure (a FailSim message flips the site to
//     the failed state in place); Restart is a RecoverSim order.
//   - ProcFabric: sites are raidsrv OS processes. Kill is SIGKILL — the
//     process dies mid-whatever with no farewell; Restart re-execs the
//     binary on the same WAL directory, so recovery runs genuine WAL
//     replay before the ordinary type-1 rejoin.
//
// Everything above the fabric — the soak loop, audits, repair passes —
// talks to the fleet through Manager(), which is the same managing-site
// control plane either way; Kill and Restart are the only operations
// whose mechanics the deployment shape decides.
type Fabric interface {
	// Manager is the managing-site control plane for the fleet; its
	// audits run over any fabric.
	Manager() *cluster.Manager
	// Kill fails site id abruptly: FailSim locally, SIGKILL for processes.
	Kill(id core.SiteID) error
	// Restart brings a killed site back through full recovery: the site
	// is restored to existence (respawned for processes), then the type-1
	// control transaction rejoins it. The returned status is the site's
	// post-recovery state; ErrRecoveryBlocked surfaces unchanged.
	Restart(id core.SiteID) (*msg.StatusResp, error)
	// Close tears the whole fleet down.
	Close() error
}

// LocalFabric adapts the in-process cluster to the Fabric interface: the
// deployment shape of the paper's experiments, reachable through the same
// API as a process fleet.
type LocalFabric struct {
	c *cluster.Cluster
}

// NewLocalFabric wraps a running cluster; Close closes it.
func NewLocalFabric(c *cluster.Cluster) *LocalFabric { return &LocalFabric{c: c} }

// Cluster returns the wrapped cluster, for the steps that act on the
// in-process wire (chaos stats, link control, per-site metrics).
func (f *LocalFabric) Cluster() *cluster.Cluster { return f.c }

// Manager implements Fabric.
func (f *LocalFabric) Manager() *cluster.Manager { return f.c.Manager }

// Kill implements Fabric with the paper's simulated failure.
func (f *LocalFabric) Kill(id core.SiteID) error {
	if err := f.check(id); err != nil {
		return err
	}
	return f.c.Fail(id)
}

// Restart implements Fabric with a RecoverSim order: the site is still
// resident (simulated failure keeps its volatile state's shell), so
// recovery is exactly the paper's type-1 path.
func (f *LocalFabric) Restart(id core.SiteID) (*msg.StatusResp, error) {
	if err := f.check(id); err != nil {
		return nil, err
	}
	return f.c.Recover(id)
}

// Close implements Fabric.
func (f *LocalFabric) Close() error {
	f.c.Close()
	return nil
}

func (f *LocalFabric) check(id core.SiteID) error {
	if int(id) < 0 || int(id) >= f.c.Sites() {
		return fmt.Errorf("deploy: site %s out of range 0..%d", id, f.c.Sites()-1)
	}
	return nil
}
