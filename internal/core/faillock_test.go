package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFailLockSetClearIsSet(t *testing.T) {
	fl := NewFailLockTable(10, 4)
	if fl.Items() != 10 || fl.Sites() != 4 {
		t.Fatalf("dims = %d items x %d sites", fl.Items(), fl.Sites())
	}
	fl.Set(3, 2)
	if !fl.IsSet(3, 2) {
		t.Error("bit not set")
	}
	if fl.IsSet(3, 1) || fl.IsSet(4, 2) {
		t.Error("unrelated bits set")
	}
	fl.Clear(3, 2)
	if fl.IsSet(3, 2) {
		t.Error("bit not cleared")
	}
	fl.Clear(3, 2) // clearing a clear bit is a no-op
	if fl.AnySet(3) {
		t.Error("AnySet true on empty item")
	}
}

func TestFailLockCounts(t *testing.T) {
	fl := NewFailLockTable(50, 2)
	for i := 0; i < 20; i++ {
		fl.Set(ItemID(i), 0)
	}
	fl.Set(5, 1)
	if got := fl.CountForSite(0); got != 20 {
		t.Errorf("CountForSite(0) = %d, want 20", got)
	}
	if got := fl.CountForSite(1); got != 1 {
		t.Errorf("CountForSite(1) = %d, want 1", got)
	}
	if got := fl.TotalSet(); got != 21 {
		t.Errorf("TotalSet = %d, want 21", got)
	}
}

func TestItemsLockedFor(t *testing.T) {
	fl := NewFailLockTable(10, 3)
	fl.Set(7, 1)
	fl.Set(2, 1)
	fl.Set(4, 0)
	got := fl.ItemsLockedFor(1)
	want := []ItemID{2, 7}
	if len(got) != len(want) {
		t.Fatalf("ItemsLockedFor(1) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ItemsLockedFor(1) = %v, want %v", got, want)
		}
	}
	if fl.ItemsLockedFor(2) != nil {
		t.Error("expected nil for unlocked site")
	}
}

func TestUpToDateSites(t *testing.T) {
	fl := NewFailLockTable(5, 4)
	fl.Set(1, 0) // site 0's copy of item 1 is stale
	fl.Set(1, 2)
	got := fl.UpToDateSites(1, 3) // exclude site 3 (the asker)
	want := []SiteID{1}
	if len(got) != 1 || got[0] != want[0] {
		t.Errorf("UpToDateSites = %v, want %v", got, want)
	}
	// On a clean item everyone but the asker is a donor.
	if got := fl.UpToDateSites(0, 0); len(got) != 3 {
		t.Errorf("UpToDateSites clean item = %v, want 3 donors", got)
	}
}

func TestSnapshotInstall(t *testing.T) {
	a := NewFailLockTable(8, 2)
	a.Set(0, 1)
	a.Set(7, 0)
	b := NewFailLockTable(8, 2)
	if err := b.Install(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !b.IsSet(0, 1) || !b.IsSet(7, 0) || b.TotalSet() != 2 {
		t.Error("install did not reproduce snapshot")
	}
	// Snapshot must be a copy, not an alias.
	snap := a.Snapshot()
	snap[0] = 0
	if !a.IsSet(0, 1) {
		t.Error("mutating snapshot affected table")
	}
	if err := b.Install(make([]uint64, 3)); err == nil {
		t.Error("size-mismatched install did not error")
	}
}

// input is one version and word for Staleness: site's copy read here
// (Copy), or a word reported by its holders (Add).
type input struct {
	read          bool
	site          SiteID
	version, word uint64
}

func joinWord(host uint64, in []input) uint64 {
	var j Staleness
	for _, x := range in {
		if x.read {
			j.Copy(x.site, x.version, x.word)
		} else {
			j.Add(1<<x.site, x.version, x.word)
		}
	}
	return j.Word(host)
}

func TestStalenessRule(t *testing.T) {
	const all = 0b111
	cases := []struct {
		name string
		host uint64
		in   []input
		want uint64
	}{
		{
			// Site 0 committed alone at v5 and marked 1 and 2 stale.
			name: "solo writer ahead of everyone",
			host: all,
			in:   []input{{true, 0, 5, 0b110}, {false, 1, 0, 0}, {false, 2, 0, 0}},
			want: 0b110,
		},
		{
			// Recovering site 2 withholds its pre-failure word (its bit 1
			// was cleared while it was down); donor 1 at the same version
			// vouches for the current word, donor 0 for its own bit.
			name: "donor against the pre-failure word at a tie",
			host: all,
			in:   []input{{true, 2, 3, 0}, {false, 1, 3, 0}, {false, 0, 1, 0b001}},
			want: 0b001,
		},
		{
			// Site 1 lost the commit of v2 and holds its own mark; the
			// lock-sync sender's v2 word lacks it.
			name: "lost participant keeps its bit",
			host: all,
			in:   []input{{true, 1, 1, 0b010}, {false, 2, 2, 0}},
			want: 0b010,
		},
		{
			// Site 2 holds v2 and recovers from the lost participant 1.
			name: "newer site takes the lost participant's own bit",
			host: all,
			in:   []input{{true, 2, 2, 0}, {false, 1, 1, 0b010}},
			want: 0b010,
		},
		{
			// Donor 2 is behind donor 1, but its commit may be in flight.
			name: "a reported copy behind the top is not derived stale",
			host: all,
			in:   []input{{true, 0, 0, 0}, {false, 1, 3, 0}, {false, 2, 2, 0}},
			want: 0b001,
		},
		{
			name: "receiver tied with the sender ORs the words",
			host: all,
			in:   []input{{true, 1, 2, 0b100}, {false, 0, 2, 0b001}},
			want: 0b101,
		},
		{
			name: "non-hosting sites get no bits",
			host: 0b011,
			in:   []input{{true, 0, 4, 0}, {true, 1, 2, 0}, {true, 2, 0, 0}},
			want: 0b010,
		},
		{
			name: "non-hosting receiver takes the sender's word only",
			host: 0b101,
			in:   []input{{true, 1, 0, 0}, {false, 0, 3, 0b100}},
			want: 0b100,
		},
	}
	for _, tc := range cases {
		if got := joinWord(tc.host, tc.in); got != tc.want {
			t.Errorf("%s: word %#b, want %#b", tc.name, got, tc.want)
		}
	}

	// A lock-sync sender's word is held at its top version, not at its
	// copy's, so it claims no bit: a receiver ahead keeps its own word.
	var j Staleness
	j.Copy(1, 4, 0b100)
	j.Add(0, 2, 0b011)
	if got := j.Word(all); got != 0b100 {
		t.Errorf("receiver ahead of the sender: word %#b, want 0b100", got)
	}
}

func TestStalenessOrderFree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := make([]input, 1+rng.Intn(6))
		for i := range in {
			// Versions from a small range so ties are common.
			in[i] = input{rng.Intn(2) == 0, SiteID(rng.Intn(8)), uint64(rng.Intn(3)), rng.Uint64() & 0xff}
		}
		host := rng.Uint64() & 0xff
		want := joinWord(host, in)
		rng.Shuffle(len(in), func(a, b int) { in[a], in[b] = in[b], in[a] })
		return joinWord(host, in) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaintainSetsDownClearsUp(t *testing.T) {
	fl := NewFailLockTable(4, 3)
	vec := NewSessionVector(3)
	vec.MarkDown(2)
	// Pre-set a stale lock for the (up) site 1 to verify re-clearing, the
	// behaviour §1.2 calls out explicitly.
	fl.Set(0, 1)
	set, cleared := fl.Maintain(0, vec)
	if set != 1 || cleared != 1 {
		t.Errorf("Maintain counts = %d set, %d cleared; want 1, 1", set, cleared)
	}
	if fl.IsSet(0, 1) {
		t.Error("maintain did not re-clear bit of operational site")
	}
	if !fl.IsSet(0, 2) {
		t.Error("maintain did not set bit of down site")
	}
	if fl.IsSet(0, 0) {
		t.Error("maintain set bit of operational site")
	}
}

func TestMaintainTreatsRecoveringAsMissing(t *testing.T) {
	fl := NewFailLockTable(1, 2)
	vec := NewSessionVector(2)
	vec.MarkRecovering(1, 2)
	fl.Maintain(0, vec)
	if !fl.IsSet(0, 1) {
		t.Error("recovering site did not get a fail-lock for a missed write")
	}
}

func TestMaintainLeavesOtherItemsAlone(t *testing.T) {
	fl := NewFailLockTable(3, 2)
	vec := NewSessionVector(2)
	vec.MarkDown(1)
	fl.Set(2, 1)
	fl.Maintain(0, vec)
	if !fl.IsSet(2, 1) {
		t.Error("maintain touched an unwritten item")
	}
}

func TestResetClearsEverything(t *testing.T) {
	fl := NewFailLockTable(4, 4)
	for i := 0; i < 4; i++ {
		fl.Set(ItemID(i), SiteID(i))
	}
	fl.Reset()
	if fl.TotalSet() != 0 {
		t.Error("reset left bits set")
	}
}

func TestFailLockBoundsPanics(t *testing.T) {
	fl := NewFailLockTable(2, 2)
	for name, f := range map[string]func(){
		"item":     func() { fl.Set(2, 0) },
		"site":     func() { fl.Set(0, 2) },
		"mask":     func() { fl.Mask(9) },
		"count":    func() { fl.CountForSite(5) },
		"maintain": func() { fl.Maintain(2, NewSessionVector(2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNewFailLockTableBounds(t *testing.T) {
	for _, c := range []struct{ items, sites int }{{1, 0}, {1, MaxSites + 1}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFailLockTable(%d,%d) did not panic", c.items, c.sites)
				}
			}()
			NewFailLockTable(c.items, c.sites)
		}()
	}
}

// Property: TotalSet equals the sum over sites of CountForSite, and
// snapshot/install is an exact round trip, under random operations.
func TestFailLockProperties(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const items, sites = 17, 5
		fl := NewFailLockTable(items, sites)
		ref := make(map[[2]int]bool)
		for op := 0; op < 200; op++ {
			it, st := rng.Intn(items), rng.Intn(sites)
			if rng.Intn(2) == 0 {
				fl.Set(ItemID(it), SiteID(st))
				ref[[2]int{it, st}] = true
			} else {
				fl.Clear(ItemID(it), SiteID(st))
				delete(ref, [2]int{it, st})
			}
		}
		// Cross-check against the reference model.
		for it := 0; it < items; it++ {
			for st := 0; st < sites; st++ {
				if fl.IsSet(ItemID(it), SiteID(st)) != ref[[2]int{it, st}] {
					return false
				}
			}
		}
		sum := 0
		for st := 0; st < sites; st++ {
			sum += fl.CountForSite(SiteID(st))
		}
		if sum != fl.TotalSet() || len(ref) != fl.TotalSet() {
			return false
		}
		clone := NewFailLockTable(items, sites)
		if err := clone.Install(fl.Snapshot()); err != nil {
			return false
		}
		return clone.TotalSet() == fl.TotalSet()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Maintain is equivalent to per-site Set/Clear according to the
// vector, for the written item only.
func TestMaintainEquivalence(t *testing.T) {
	prop := func(seed int64, downMask uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const items, sites = 9, 6
		vec := NewSessionVector(sites)
		for s := 0; s < sites; s++ {
			if downMask&(1<<s) != 0 {
				vec.MarkDown(SiteID(s))
			}
		}
		a := NewFailLockTable(items, sites)
		b := NewFailLockTable(items, sites)
		for i := 0; i < 40; i++ {
			it, st := ItemID(rng.Intn(items)), SiteID(rng.Intn(sites))
			a.Set(it, st)
			b.Set(it, st)
		}
		item := ItemID(rng.Intn(items))
		a.Maintain(item, vec)
		for s := 0; s < sites; s++ {
			if vec.IsUp(SiteID(s)) {
				b.Clear(item, SiteID(s))
			} else {
				b.Set(item, SiteID(s))
			}
		}
		for it := 0; it < items; it++ {
			if a.Mask(ItemID(it)) != b.Mask(ItemID(it)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPopcount(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 1, 0xFF: 8, 1 << 63: 1, ^uint64(0): 64, 0xA5A5: 8}
	for in, want := range cases {
		if got := popcount(in); got != want {
			t.Errorf("popcount(%#x) = %d, want %d", in, got, want)
		}
	}
}

func TestModelStrings(t *testing.T) {
	if got := OpRead.String(); got != "read" {
		t.Errorf("OpRead = %q", got)
	}
	if got := OpWrite.String(); got != "write" {
		t.Errorf("OpWrite = %q", got)
	}
	if got := OpKind(9).String(); got != "OpKind(9)" {
		t.Errorf("bad kind = %q", got)
	}
	if got := Read(3).String(); got != "r(3)" {
		t.Errorf("read op = %q", got)
	}
	if got := Write(4, []byte("ab")).String(); got != "w(4,2B)" {
		t.Errorf("write op = %q", got)
	}
	iv := ItemVersion{Item: 2, Version: 7, Value: []byte("xyz")}
	if got := iv.String(); got != "item 2 v7 (3B)" {
		t.Errorf("item version = %q", got)
	}
}
