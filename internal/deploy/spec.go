// Package deploy is the deployment layer: one serializable description of
// a mini-RAID fleet (ClusterSpec) and one Fabric interface over the two
// ways the fleet can exist — sites as goroutines inside this process
// (LocalFabric wrapping cluster.Cluster) or sites as raidsrv OS processes
// reached over real TCP (ProcFabric), where "fail" is SIGKILL and
// "recover" is re-exec plus WAL replay plus the ordinary type-1 control
// transaction.
//
// The spec is deliberately the whole configuration surface shared by
// cmd/raidsrv, cmd/raidctl and the soak CLI: each binds the same flags
// through BindFlags, or loads the same JSON file, so every participant in
// a deployment is configured identically from one artifact.
package deploy

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"minraid/internal/cluster"
	"minraid/internal/core"
	"minraid/internal/netcfg"
	"minraid/internal/policy"
	"minraid/internal/storage"
)

// Duration is a time.Duration that marshals to JSON as a parseable string
// ("250ms"), keeping spec files human-editable.
type Duration time.Duration

// MarshalJSON renders the duration as its String form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts either a duration string or a nanosecond count.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("deploy: bad duration %q: %v", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("deploy: bad duration %s", b)
	}
	*d = Duration(n)
	return nil
}

// ClusterSpec describes a deployed fleet completely: topology (the netcfg
// address map), database size, protocol, placement and per-site execution
// knobs. It round-trips flags ⇄ JSON: BindFlags exposes every field as a
// command-line flag, Flags renders it back, and Load/Save move it through
// a JSON file.
type ClusterSpec struct {
	// Addrs is the netcfg address map ("0=host:port,...,m=host:port",
	// ranges allowed). The number of database sites is derived from it.
	Addrs string `json:"addrs"`
	// Items is the database size in data items.
	Items int `json:"items"`
	// PolicyName selects the replication protocol: rowaa, rowa, quorum.
	PolicyName string `json:"policy,omitempty"`
	// ReplicationDegree places each item on this many sites round-robin
	// (cluster.Config.ReplicationDegree: 0..sites, where 0 and sites both
	// keep the paper's full replication).
	ReplicationDegree int `json:"replication_degree,omitempty"`
	// Concurrent is the per-site interleaved-transaction cap (0/1 serial).
	Concurrent int `json:"concurrent,omitempty"`
	// AckTimeout is each site's failure-detection timeout (0: site default).
	AckTimeout Duration `json:"ack_timeout,omitempty"`
	// LockWaitBudget bounds concurrent-mode lock waits (0: site default).
	LockWaitBudget Duration `json:"lock_wait_budget,omitempty"`
	// EnableType3 enables type-3 control transactions on every site.
	EnableType3 bool `json:"enable_type3,omitempty"`
	// WALRoot, when non-empty, gives every site a durable WAL store under
	// WALRoot/site-N. Empty runs in-memory stores (no crash recovery).
	WALRoot string `json:"wal_root,omitempty"`
}

// BindFlags registers every spec field on fs under the shared flag names
// and returns the spec that fs.Parse will populate. All deployment CLIs
// (raidsrv, raidctl, raid-experiments soak -fabric proc) bind the same
// surface, so one command line configures them identically.
func BindFlags(fs *flag.FlagSet) *ClusterSpec {
	s := &ClusterSpec{}
	fs.StringVar(&s.Addrs, "addrs", "", "address map: 0=host:port,...,m=host:port (ranges: 0-4=host:7000-7004)")
	fs.IntVar(&s.Items, "items", 50, "database size in data items")
	fs.StringVar(&s.PolicyName, "policy", "rowaa", "replication policy: rowaa, rowa, quorum")
	fs.IntVar(&s.ReplicationDegree, "degree", 0, "copies per item, round-robin (0 = full replication)")
	fs.IntVar(&s.Concurrent, "concurrent", 0, "max interleaved txns per site (0/1 = serial, as the paper)")
	fs.DurationVar((*time.Duration)(&s.AckTimeout), "ack-timeout", 0, "per-site failure-detection timeout (0 = site default)")
	fs.DurationVar((*time.Duration)(&s.LockWaitBudget), "lock-wait", 0, "per-site concurrent-mode lock wait budget (0 = site default)")
	fs.BoolVar(&s.EnableType3, "type3", false, "enable type-3 control transactions")
	fs.StringVar(&s.WALRoot, "wal", "", "root directory for per-site WAL stores (empty: in-memory)")
	return s
}

// Flags renders the spec back to the argument list BindFlags parses —
// the inverse direction of the flags ⇄ JSON round trip. Zero-valued
// fields that have non-zero flag defaults are still emitted so the
// rendered list reproduces the spec exactly regardless of defaults.
func (s *ClusterSpec) Flags() []string {
	args := []string{
		"-addrs", s.Addrs,
		"-items", fmt.Sprint(s.Items),
		"-policy", s.PolicyName,
		"-degree", fmt.Sprint(s.ReplicationDegree),
		"-concurrent", fmt.Sprint(s.Concurrent),
		"-ack-timeout", time.Duration(s.AckTimeout).String(),
		"-lock-wait", time.Duration(s.LockWaitBudget).String(),
		"-wal", s.WALRoot,
	}
	if s.EnableType3 {
		args = append(args, "-type3")
	}
	return args
}

// LoadSpec reads a ClusterSpec from a JSON file and validates it.
func LoadSpec(path string) (*ClusterSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("deploy: read spec: %w", err)
	}
	var s ClusterSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("deploy: parse spec %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("deploy: spec %s: %w", path, err)
	}
	return &s, nil
}

// Save writes the spec as indented JSON — the artifact a ProcFabric hands
// to every raidsrv child and an operator hands to raidctl.
func (s *ClusterSpec) Save(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Validate checks the spec is internally consistent: a parseable address
// map with a managing-site entry, a known policy, and a cluster
// description that cluster.Config.Validate accepts — so a spec passes
// only if every site of the fleet could start from it.
func (s *ClusterSpec) Validate() error {
	_, err := s.Config()
	return err
}

func (s *ClusterSpec) policyName() string {
	if s.PolicyName == "" {
		return "rowaa"
	}
	return s.PolicyName
}

// AddrMap parses the address map, returning the per-site addresses and
// the database site count.
func (s *ClusterSpec) AddrMap() (map[core.SiteID]string, int, error) {
	return netcfg.ParseAddrs(s.Addrs)
}

// Sites returns the database site count (0 if the map does not parse;
// Validate first).
func (s *ClusterSpec) Sites() int {
	_, sites, err := netcfg.ParseAddrs(s.Addrs)
	if err != nil {
		return 0
	}
	return sites
}

// WALDir returns site id's store directory under WALRoot, or "" when the
// deployment runs in-memory.
func (s *ClusterSpec) WALDir(id core.SiteID) string {
	if s.WALRoot == "" {
		return ""
	}
	return filepath.Join(s.WALRoot, fmt.Sprintf("site-%d", id))
}

// Config validates the spec and translates it into the cluster it
// describes — the one translation raidsrv, the TCP managing site and an
// in-process raidctl all start from. The address map contributes the
// site count. A WAL root becomes a store factory that refuses to run:
// in-process sites keep no session file, so a durable store could not
// rejoin after a restart the way a raidsrv process does; raidsrv opens the
// stores itself from WALDir.
func (s *ClusterSpec) Config() (cluster.Config, error) {
	addrs, sites, err := netcfg.ParseAddrs(s.Addrs)
	if err != nil {
		return cluster.Config{}, err
	}
	if _, ok := addrs[core.ManagingSite]; !ok {
		return cluster.Config{}, fmt.Errorf("deploy: address map needs an m= entry for the managing site")
	}
	p, ok := policy.ByName(s.policyName())
	if !ok {
		return cluster.Config{}, fmt.Errorf("deploy: unknown policy %q", s.PolicyName)
	}
	cfg := cluster.Config{
		Sites:             sites,
		Items:             s.Items,
		Policy:            p,
		AckTimeout:        time.Duration(s.AckTimeout),
		EnableType3:       s.EnableType3,
		ReplicationDegree: s.ReplicationDegree,
		ConcurrentTxns:    s.Concurrent,
		LockWaitBudget:    time.Duration(s.LockWaitBudget),
	}
	if s.WALRoot != "" {
		cfg.StoreFactory = func(core.SiteID) (storage.Store, error) {
			return nil, fmt.Errorf("deploy: wal_root (-wal) needs raidsrv processes; an in-process cluster keeps memory stores")
		}
	}
	return cfg, cfg.Validate()
}
