package deploy

import (
	"flag"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"minraid/internal/core"
)

func testSpec() *ClusterSpec {
	return &ClusterSpec{
		Addrs:             "0-2=host:7000-7002,m=host:7009",
		Items:             40,
		PolicyName:        "rowaa",
		ReplicationDegree: 2,
		Concurrent:        4,
		AckTimeout:        Duration(250 * time.Millisecond),
		LockWaitBudget:    Duration(100 * time.Millisecond),
		InstantRecovery:   true,
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
	// uses, and the placement raidctl's manager audits with.
	for _, other := range []*ClusterSpec{fromFlags, fromJSON} {
		for id := 0; id < spec.Sites(); id++ {
			a, err := spec.SiteConfig(core.SiteID(id))
			if err != nil {
				t.Fatal(err)
			}
			b, err := other.SiteConfig(core.SiteID(id))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("site %d config diverged:\n got %+v\nwant %+v", id, b, a)
			}
		}
		if !reflect.DeepEqual(spec.Replicas(), other.Replicas()) {
			t.Error("replica placement diverged")
		}
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []ClusterSpec{
		{Addrs: "0=h:1,1=h:2", Items: 10},                              // no manager entry
		{Addrs: "0=h:1,1=h:2,m=h:9", Items: 0},                         // no items
		{Addrs: "0=h:1,1=h:2,m=h:9", Items: 10, PolicyName: "nope"},    // unknown policy
		{Addrs: "0=h:1,1=h:2,m=h:9", Items: 10, ReplicationDegree: 3},  // degree > sites
		{Addrs: "0=h:1,1=h:2,m=h:9", Items: 10, ReplicationDegree: -1}, // negative degree
		{Addrs: "bogus", Items: 10},                                    // unparseable map
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, s)
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
