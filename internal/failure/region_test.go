package failure

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"minraid/internal/core"
	"minraid/internal/transport"
)

// assign6 spreads 6 sites over 3 regions round-robin, the shape wan3
// compiles for 6 sites: region 0 = {0,3}, 1 = {1,4}, 2 = {2,5}.
var assign6 = []int{0, 1, 2, 0, 1, 2}

func TestRegionPartitionCutsRegionFromRest(t *testing.T) {
	e, err := RegionPartition(assign6, []string{"us", "eu", "ap"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != Partition {
		t.Fatalf("kind = %v, want partition", e.Kind)
	}
	if len(e.Groups) != 2 || e.Groups[0].Name != "eu" || e.Groups[1].Name != "rest" {
		t.Fatalf("groups = %v", e.Groups)
	}
	if want := []core.SiteID{1, 4}; !reflect.DeepEqual(e.Groups[0].Sites, want) {
		t.Fatalf("cut sites = %v, want %v", e.Groups[0].Sites, want)
	}
	if want := []core.SiteID{0, 2, 3, 5}; !reflect.DeepEqual(e.Groups[1].Sites, want) {
		t.Fatalf("rest sites = %v, want %v", e.Groups[1].Sites, want)
	}
	// Every compiled down link crosses the region boundary.
	for _, l := range e.DownLinks() {
		inFrom := assign6[l.From] == 1
		inTo := assign6[l.To] == 1
		if inFrom == inTo {
			t.Fatalf("link %v does not cross the region boundary", l)
		}
	}
}

func TestRegionOneWayBlackholesDirectedLinks(t *testing.T) {
	e, err := RegionOneWay(assign6, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != OneWay {
		t.Fatalf("kind = %v, want one-way", e.Kind)
	}
	want := []transport.LinkID{
		{From: 2, To: 0}, {From: 2, To: 3},
		{From: 5, To: 0}, {From: 5, To: 3},
	}
	if !reflect.DeepEqual(e.Links, want) {
		t.Fatalf("links = %v, want %v", e.Links, want)
	}
}

func TestRegionEventErrors(t *testing.T) {
	if _, err := RegionPartition([]int{0, 0, 0}, nil, 0); err == nil {
		t.Fatal("partitioned a region holding every site")
	}
	if _, err := RegionPartition(assign6, nil, 9); err == nil {
		t.Fatal("partitioned an empty region")
	}
	if _, err := RegionOneWay(assign6, 1, 1); err == nil {
		t.Fatal("one-way drop accepted identical regions")
	}
}

func TestRandomRegionalDeterministic(t *testing.T) {
	cfg := RegionalConfig{Assign: assign6, Names: []string{"us", "eu", "ap"}, Txns: 60}
	a, err := RandomRegional(cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomRegional(cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events, b.Events) || a.NetFingerprint(6) != b.NetFingerprint(6) {
		t.Fatalf("same seed diverged:\n%v\n%v", a.Events, b.Events)
	}
	c, err := RandomRegional(cfg, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if a.NetFingerprint(6) == c.NetFingerprint(6) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestRandomRegionalShape: over many seeds every generated schedule
// validates, every fault is region-sized, and both fault kinds occur.
func TestRandomRegionalShape(t *testing.T) {
	cfg := RegionalConfig{Assign: assign6, Txns: 80}
	parts, oneways := 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		s, err := RandomRegional(cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := s.Validate(6); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, e := range s.Events {
			switch e.Kind {
			case Partition:
				parts++
				// One side is exactly a region.
				cut := e.Groups[0].Sites
				r := assign6[cut[0]]
				if !reflect.DeepEqual(cut, regionSites(assign6, r)) {
					t.Fatalf("seed %d: partition group %v is not region %d", seed, cut, r)
				}
			case OneWay:
				oneways++
			case Heal:
			default:
				t.Fatalf("seed %d: unexpected event kind %v", seed, e.Kind)
			}
		}
	}
	if parts == 0 || oneways == 0 {
		t.Fatalf("fault mix degenerate: %d partitions, %d one-ways", parts, oneways)
	}
}

func TestRandomRegionalRejectsBadConfig(t *testing.T) {
	if _, err := RandomRegional(RegionalConfig{Assign: []int{0, 0}, Txns: 10}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("accepted a single-region assignment")
	}
	if _, err := RandomRegional(RegionalConfig{Assign: assign6, Txns: 0}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("accepted zero transactions")
	}
}

// TestRegionalScheduleRendersRegionNames: the canonical rendering carries
// region labels, so soak logs and repro diffs read in WAN terms.
func TestRegionalScheduleRendersRegionNames(t *testing.T) {
	cfg := RegionalConfig{Assign: assign6, Names: []string{"us-east", "eu-west", "ap-south"}, Txns: 60}
	for seed := int64(1); seed <= 10; seed++ {
		s, err := RandomRegional(cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		rendered := fmt.Sprint(s.Events)
		if strings.Contains(rendered, "partition") && !strings.Contains(rendered, "-") {
			t.Fatalf("seed %d: partition event lost its region label: %s", seed, rendered)
		}
	}
}
