package deploy

import (
	"flag"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"minraid/internal/cluster"
	"minraid/internal/core"
)

// testSpec sets every field to a non-default value a fleet can run: the
// degree equals the site count because concurrency and type-3 both need
// full replication.
func testSpec() *ClusterSpec {
	return &ClusterSpec{
		Addrs:             "0-2=host:7000-7002,m=host:7009",
		Items:             40,
		PolicyName:        "rowaa",
		ReplicationDegree: 3,
		Concurrent:        4,
		AckTimeout:        Duration(250 * time.Millisecond),
		LockWaitBudget:    Duration(100 * time.Millisecond),
		EnableType3:       true,
		WALRoot:           "/tmp/walroot",
	}
}

// TestSpecRoundTrip pins the acceptance property of the deployment API:
// one ClusterSpec survives both serialization directions — through the
// flag surface every CLI binds (raidsrv, raidctl, the soak driver) and
// through the JSON file the process fabric writes — and lands identical.
func TestSpecRoundTrip(t *testing.T) {
	spec := testSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}

	// flags direction: render, re-parse on a fresh FlagSet.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fromFlags := BindFlags(fs)
	if err := fs.Parse(spec.Flags()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFlags, spec) {
		t.Errorf("flags round trip diverged:\n got %+v\nwant %+v", fromFlags, spec)
	}

	// JSON direction: save, load.
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := spec.Save(path); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromJSON, spec) {
		t.Errorf("JSON round trip diverged:\n got %+v\nwant %+v", fromJSON, spec)
	}

	// And the derived configuration every consumer builds from the spec is
	// identical whichever path delivered it: the per-site config raidsrv
	// uses, placement included, which raidctl's manager audits with.
	want, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []*ClusterSpec{fromFlags, fromJSON} {
		got, err := other.Config()
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < want.Sites; id++ {
			a, err := want.SiteConfig(core.SiteID(id))
			if err != nil {
				t.Fatal(err)
			}
			b, err := got.SiteConfig(core.SiteID(id))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("site %d config diverged:\n got %+v\nwant %+v", id, b, a)
			}
		}
	}
}

func TestSpecValidate(t *testing.T) {
	partialConcurrent := *testSpec()
	partialConcurrent.ReplicationDegree, partialConcurrent.EnableType3 = 2, false
	bad := []struct {
		spec ClusterSpec
		want string // a fragment of the error naming the rule
	}{
		{ClusterSpec{Addrs: "0=h:1,1=h:2", Items: 10}, "m= entry"},
		{ClusterSpec{Addrs: "0=h:1,1=h:2,m=h:9", Items: 0}, "items out of range"},
		{ClusterSpec{Addrs: "0=h:1,1=h:2,m=h:9", Items: 10, PolicyName: "nope"}, "unknown policy"},
		{ClusterSpec{Addrs: "0=h:1,1=h:2,m=h:9", Items: 10, ReplicationDegree: 3}, "replication degree"},
		{ClusterSpec{Addrs: "0=h:1,1=h:2,m=h:9", Items: 10, ReplicationDegree: -1}, "replication degree"},
		{ClusterSpec{Addrs: "bogus", Items: 10}, "netcfg"},
		// Rules only the site knows: site.New would refuse every site of
		// these fleets, so the spec must be refused before any starts.
		{partialConcurrent, "concurrent mode requires full replication"},
		{ClusterSpec{Addrs: "0=h:1,1=h:2,m=h:9", Items: 10, PolicyName: "rowa", ReplicationDegree: 1}, "partial replication requires a copy-aware policy"},
		{ClusterSpec{Addrs: "0=h:1,1=h:2,m=h:9", Items: 10, AckTimeout: Duration(time.Second), LockWaitBudget: Duration(time.Second)}, "lock-wait budget"},
	}
	for i, c := range bad {
		err := c.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: err = %v, want one naming %q", i, err, c.want)
		}
	}
	good := []ClusterSpec{
		{Addrs: "0=h:1,1=h:2,m=h:9", Items: 10}, // minimal
		// Partial replication under quorum: site.Config has accepted it
		// since quorums became per-item, and the in-process soak runs it.
		{Addrs: "0=h:1,1=h:2,m=h:9", Items: 10, PolicyName: "quorum", ReplicationDegree: 1},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("good case %d rejected: %v", i, err)
		}
	}
}

// TestClusterConfigHonoursOrRejectsEveryField changes one spec field at a
// time: the translation to the cluster description must either change with
// it or refuse it by its JSON name, never drop it silently. A new spec
// field fails here until it is given a case.
func TestClusterConfigHonoursOrRejectsEveryField(t *testing.T) {
	base := ClusterSpec{Addrs: "0-2=h:1-3,m=h:9", Items: 30}
	change := map[string]func(*ClusterSpec){
		"addrs":              func(s *ClusterSpec) { s.Addrs = "0-3=h:1-4,m=h:9" },
		"items":              func(s *ClusterSpec) { s.Items = 40 },
		"policy":             func(s *ClusterSpec) { s.PolicyName = "quorum" },
		"replication_degree": func(s *ClusterSpec) { s.ReplicationDegree = 2 },
		"concurrent":         func(s *ClusterSpec) { s.Concurrent = 4 },
		"ack_timeout":        func(s *ClusterSpec) { s.AckTimeout = Duration(100 * time.Millisecond) },
		"lock_wait_budget":   func(s *ClusterSpec) { s.LockWaitBudget = Duration(10 * time.Millisecond) },
		"enable_type3":       func(s *ClusterSpec) { s.EnableType3 = true },
		"wal_root":           func(s *ClusterSpec) { s.WALRoot = "/data" },
	}
	want, err := base.Config()
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		fn, ok := change[name]
		if !ok {
			t.Errorf("spec field %q has no case: decide whether the in-process translation honours or rejects it", name)
			continue
		}
		s := base
		fn(&s)
		got, err := s.Config()
		switch {
		case err != nil && !strings.Contains(err.Error(), name):
			t.Errorf("%s: rejected without naming the field: %v", name, err)
		case err == nil && reflect.DeepEqual(got, want):
			t.Errorf("%s: silently ignored by the in-process translation", name)
		}
	}
}

// TestWALRootRefusedInProcess pins where the wal_root translation lands:
// raidsrv opens the stores itself, and an in-process cluster built from the
// spec refuses to start, naming the field.
func TestWALRootRefusedInProcess(t *testing.T) {
	spec := ClusterSpec{Addrs: "0-2=h:1-3,m=h:9", Items: 30, WALRoot: "/data"}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cfg)
	if err == nil {
		c.Close()
		t.Fatal("in-process cluster started on a WAL root")
	}
	if !strings.Contains(err.Error(), "wal_root") {
		t.Errorf("refusal does not name wal_root: %v", err)
	}
}

func TestSpecWALDir(t *testing.T) {
	s := ClusterSpec{WALRoot: "/data"}
	if got := s.WALDir(2); got != filepath.Join("/data", "site-2") {
		t.Errorf("WALDir = %q", got)
	}
	s.WALRoot = ""
	if got := s.WALDir(2); got != "" {
		t.Errorf("in-memory WALDir = %q", got)
	}
}

func TestSessionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	// Missing file: first boot.
	n, err := LoadSession(dir)
	if err != nil || n != 0 {
		t.Fatalf("fresh dir: n=%d err=%v", n, err)
	}
	for _, want := range []core.SessionNum{1, 2, 7} {
		if err := SaveSession(dir, want); err != nil {
			t.Fatal(err)
		}
		got, err := LoadSession(dir)
		if err != nil || got != want {
			t.Fatalf("session %d: got %d err=%v", want, got, err)
		}
	}
}
