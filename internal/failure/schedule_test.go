package failure

import (
	"reflect"
	"testing"

	"minraid/internal/core"
	"minraid/internal/transport"
)

// upAt replays s over sites sites and returns, in ascending order, the
// sites up when transaction txnNum is issued (after every event firing
// before it).
func upAt(s Schedule, sites, txnNum int) []core.SiteID {
	up := make([]bool, sites)
	for i := range up {
		up[i] = true
	}
	for _, e := range s.Events {
		if e.BeforeTxn > txnNum {
			break
		}
		if !e.Kind.Link() {
			up[e.Site] = e.Kind == Recover
		}
	}
	var out []core.SiteID
	for i, u := range up {
		if u {
			out = append(out, core.SiteID(i))
		}
	}
	return out
}

func sitesEqual(a []core.SiteID, b ...core.SiteID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestValidate(t *testing.T) {
	good := Scenario1()
	if err := good.Validate(2); err != nil {
		t.Errorf("scenario 1 invalid: %v", err)
	}
	bad := Schedule{Events: []Event{{BeforeTxn: 0, Kind: Fail, Site: 0}}}
	if err := bad.Validate(2); err == nil {
		t.Error("zero txn accepted")
	}
	bad = Schedule{Events: []Event{{BeforeTxn: 1, Kind: Fail, Site: 9}}}
	if err := bad.Validate(2); err == nil {
		t.Error("out-of-range site accepted")
	}
	bad = Schedule{Events: []Event{
		{BeforeTxn: 5, Kind: Fail, Site: 0},
		{BeforeTxn: 2, Kind: Recover, Site: 0},
	}}
	if err := bad.Validate(2); err == nil {
		t.Error("out-of-order events accepted")
	}
}

func TestEventsBefore(t *testing.T) {
	s := Scenario1()
	evs := s.EventsBefore(26)
	if len(evs) != 2 {
		t.Fatalf("events before 26: %v", evs)
	}
	if evs[0].Kind != Recover || evs[0].Site != 0 || evs[1].Kind != Fail || evs[1].Site != 1 {
		t.Errorf("events = %v", evs)
	}
	if got := s.EventsBefore(27); len(got) != 0 {
		t.Errorf("unexpected events: %v", got)
	}
}

func TestUpSetScenario1(t *testing.T) {
	s := Scenario1()
	if got := upAt(s, 2, 1); !sitesEqual(got, 1) {
		t.Errorf("txn 1 up = %v", got)
	}
	if got := upAt(s, 2, 25); !sitesEqual(got, 1) {
		t.Errorf("txn 25 up = %v", got)
	}
	if got := upAt(s, 2, 26); !sitesEqual(got, 0) {
		t.Errorf("txn 26 up = %v", got)
	}
	if got := upAt(s, 2, 51); !sitesEqual(got, 0, 1) {
		t.Errorf("txn 51 up = %v", got)
	}
}

func TestScenario2Shape(t *testing.T) {
	s := Scenario2()
	if err := s.Validate(4); err != nil {
		t.Fatal(err)
	}
	// Exactly one site down in each failure window; all up from txn 101.
	for txn := 1; txn <= 100; txn++ {
		if got := len(upAt(s, 4, txn)); got != 3 {
			t.Fatalf("txn %d has %d up sites", txn, got)
		}
	}
	if got := len(upAt(s, 4, 101)); got != 4 {
		t.Errorf("txn 101 has %d up sites", got)
	}
	downAt := map[int]core.SiteID{1: 0, 26: 1, 51: 2, 76: 3}
	for txn, want := range downAt {
		for _, id := range upAt(s, 4, txn) {
			if id == want {
				t.Errorf("txn %d: %s should be down", txn, want)
			}
		}
	}
}

func TestFigure1Shape(t *testing.T) {
	s := Figure1(400)
	if s.Txns != 400 {
		t.Errorf("cap = %d", s.Txns)
	}
	if got := upAt(s, 2, 100); !sitesEqual(got, 1) {
		t.Errorf("txn 100 up = %v", got)
	}
	if got := upAt(s, 2, 101); !sitesEqual(got, 0, 1) {
		t.Errorf("txn 101 up = %v", got)
	}
}

func TestMerge(t *testing.T) {
	links := Schedule{Txns: 30, Events: []Event{
		{BeforeTxn: 2, Kind: Cut, Links: []transport.LinkID{{From: 0, To: 1}}},
		{BeforeTxn: 9, Kind: Heal},
	}}
	sites := Schedule{Txns: 30, Events: []Event{
		{BeforeTxn: 1, Kind: Fail, Site: 2},
		{BeforeTxn: 9, Kind: Recover, Site: 2},
		{BeforeTxn: 9, Kind: Fail, Site: 0},
	}}
	m := Merge(links, sites)
	var got []string
	for _, e := range m.Events {
		got = append(got, e.String())
	}
	want := []string{
		"before txn 1: fail site 2",
		"t2 cut 0<->1",
		"t9 heal", // the first schedule's events lead at a shared boundary
		"before txn 9: recover site 2",
		"before txn 9: fail site 0",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged = %q, want %q", got, want)
	}
	if m.Txns != 30 {
		t.Errorf("merged txns = %d", m.Txns)
	}
	if err := m.Validate(3); err != nil {
		t.Fatalf("merged schedule invalid: %v", err)
	}
	// Only link events enter the link fingerprint.
	if m.NetFingerprint(3) != links.NetFingerprint(3) {
		t.Error("site events changed the link fingerprint")
	}
}

func TestActionEventStrings(t *testing.T) {
	if Fail.String() != "fail" || Recover.String() != "recover" {
		t.Error("action strings")
	}
	e := Event{BeforeTxn: 3, Kind: Fail, Site: 1}
	if e.String() != "before txn 3: fail site 1" {
		t.Errorf("event string = %q", e.String())
	}
	p := Event{BeforeTxn: 5, Kind: Partition, Groups: []Group{
		{Name: "A", Sites: []core.SiteID{0}}, {Name: "B", Sites: []core.SiteID{1, 2}},
	}}
	if p.String() != "t5 partition A={0} B={1,2}" {
		t.Errorf("link event string = %q", p.String())
	}
}
