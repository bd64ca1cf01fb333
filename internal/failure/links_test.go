package failure

import (
	"math/rand"
	"reflect"
	"testing"

	"minraid/internal/core"
	"minraid/internal/transport"
)

// fakeLinks records SetLinkDown calls in order.
type fakeLinks struct {
	calls []call
	down  map[transport.LinkID]bool
}

type call struct {
	link transport.LinkID
	down bool
}

func newFakeLinks() *fakeLinks { return &fakeLinks{down: make(map[transport.LinkID]bool)} }

func (f *fakeLinks) SetLinkDown(from, to core.SiteID, down bool) {
	f.calls = append(f.calls, call{transport.LinkID{From: from, To: to}, down})
	if down {
		f.down[transport.LinkID{From: from, To: to}] = true
	} else {
		delete(f.down, transport.LinkID{From: from, To: to})
	}
}

func TestPartitionEventCompilesToCrossLinks(t *testing.T) {
	e := Event{
		Kind: Partition,
		Groups: []Group{
			{Name: "A", Sites: []core.SiteID{0}},
			{Name: "B", Sites: []core.SiteID{1, 2}},
		},
	}
	got := e.DownLinks()
	want := []transport.LinkID{
		{From: 0, To: 1}, {From: 0, To: 2},
		{From: 1, To: 0}, {From: 2, To: 0},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DownLinks = %v, want %v", got, want)
	}
	// A site outside every group keeps its links: a 4th site appears in
	// no compiled link.
	for _, l := range got {
		if l.From == 3 || l.To == 3 {
			t.Fatalf("ungrouped site 3 appears in %v", l)
		}
	}
}

func TestCutCompilesBothDirections(t *testing.T) {
	e := Event{Kind: Cut, Links: []transport.LinkID{{From: 2, To: 0}}}
	want := []transport.LinkID{{From: 0, To: 2}, {From: 2, To: 0}}
	if got := e.DownLinks(); !reflect.DeepEqual(got, want) {
		t.Fatalf("DownLinks = %v, want %v", got, want)
	}
	one := Event{Kind: OneWay, Links: []transport.LinkID{{From: 2, To: 0}}}
	if got := one.DownLinks(); !reflect.DeepEqual(got, []transport.LinkID{{From: 2, To: 0}}) {
		t.Fatalf("OneWay DownLinks = %v", got)
	}
}

func TestValidateRejectsBadSchedules(t *testing.T) {
	part := Event{BeforeTxn: 1, Kind: Partition, Groups: []Group{
		{Name: "A", Sites: []core.SiteID{0}}, {Name: "B", Sites: []core.SiteID{1}},
	}}
	cases := []struct {
		name string
		s    Schedule
	}{
		{"heal without episode", Schedule{Txns: 10, Events: []Event{{BeforeTxn: 2, Kind: Heal}}}},
		{"overlapping episodes", Schedule{Txns: 10, Events: []Event{part,
			{BeforeTxn: 3, Kind: Cut, Links: []transport.LinkID{{From: 0, To: 1}}}}}},
		{"event out of range", Schedule{Txns: 10, Events: []Event{{BeforeTxn: 11, Kind: Heal}}}},
		{"unsorted", Schedule{Txns: 10, Events: []Event{
			{BeforeTxn: 5, Kind: Cut, Links: []transport.LinkID{{From: 0, To: 1}}},
			{BeforeTxn: 2, Kind: Heal}}}},
		{"site out of range", Schedule{Txns: 10, Events: []Event{
			{BeforeTxn: 1, Kind: OneWay, Links: []transport.LinkID{{From: 0, To: 5}}}}}},
		{"self link", Schedule{Txns: 10, Events: []Event{
			{BeforeTxn: 1, Kind: OneWay, Links: []transport.LinkID{{From: 1, To: 1}}}}}},
		{"overlapping groups", Schedule{Txns: 10, Events: []Event{
			{BeforeTxn: 1, Kind: Partition, Groups: []Group{
				{Name: "A", Sites: []core.SiteID{0, 1}}, {Name: "B", Sites: []core.SiteID{1, 2}}}}}}},
	}
	for _, tc := range cases {
		if err := tc.s.Validate(3); err == nil {
			t.Errorf("%s: Validate accepted an invalid schedule", tc.name)
		}
	}
	ok := Schedule{Txns: 10, Events: []Event{part, {BeforeTxn: 4, Kind: Heal}}}
	if err := ok.Validate(3); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

func TestRandomIsDeterministic(t *testing.T) {
	cfg := LinkConfig{Sites: 4, Txns: 60}
	a, err := RandomLinks(cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomLinks(cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a.Events, b.Events)
	}
	if a.NetFingerprint(4) != b.NetFingerprint(4) {
		t.Fatalf("fingerprints differ: %x vs %x", a.NetFingerprint(4), b.NetFingerprint(4))
	}
	c, err := RandomLinks(cfg, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Events) > 0 && len(a.Events) > 0 && a.NetFingerprint(4) == c.NetFingerprint(4) {
		t.Fatalf("different seeds produced identical fingerprints")
	}
	if len(a.Events) == 0 {
		t.Fatalf("60-txn schedule generated no episodes")
	}
	if err := a.Validate(4); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
}

func TestRandomManySeedsValidate(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		for _, sites := range []int{2, 3, 4, 7} {
			s, err := RandomLinks(LinkConfig{Sites: sites, Txns: 40}, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("seed %d sites %d: %v", seed, sites, err)
			}
			if err := s.Validate(sites); err != nil {
				t.Fatalf("seed %d sites %d: %v\n%v", seed, sites, err, s.Events)
			}
		}
	}
}

func TestTopologyDrive(t *testing.T) {
	lc := newFakeLinks()
	top := NewTopology(3)
	fault := Event{Kind: Partition, Groups: []Group{
		{Name: "A", Sites: []core.SiteID{0}}, {Name: "B", Sites: []core.SiteID{1, 2}},
	}}
	top.Drive(lc, fault)
	if !top.Active() {
		t.Fatal("topology inactive after fault")
	}
	if top.Reachable(0, 1) || top.Reachable(2, 0) {
		t.Fatal("cross-group pairs reported reachable")
	}
	if !top.Reachable(1, 2) {
		t.Fatal("same-side pair reported unreachable")
	}
	if !top.Affected(0) || !top.Affected(1) || !top.Affected(2) {
		t.Fatal("partitioned sites not reported affected")
	}
	if len(lc.down) != 4 {
		t.Fatalf("%d links down, want 4", len(lc.down))
	}
	top.Drive(lc, Event{Kind: Heal})
	if top.Active() || len(lc.down) != 0 {
		t.Fatalf("heal left links down: %v", lc.down)
	}
	if top.Affected(0) {
		t.Fatal("site affected after heal")
	}
	// One-way cut: request direction dead, reply direction alive, but
	// the pair counts as unreachable for round-trip purposes.
	top.Drive(lc, Event{Kind: OneWay, Links: []transport.LinkID{{From: 0, To: 1}}})
	if top.Reachable(0, 1) || top.Reachable(1, 0) {
		t.Fatal("one-way cut pair reported reachable")
	}
	if top.Affected(2) {
		t.Fatal("bystander reported affected by one-way cut")
	}
}
