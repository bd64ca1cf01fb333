package main

import (
	"bytes"
	"reflect"
	"testing"

	"minraid/internal/core"
)

func testStream(seed uint64) *Stream {
	return &Stream{Seed: seed, Items: 100_000, Sites: 4, MaxOps: 5, WritePct: 50}
}

func TestStreamIsPureInSeedAndSeq(t *testing.T) {
	a, b := testStream(7), testStream(7)
	// One stream drawn forwards, the other backwards: they agree per seq.
	const n = 500
	forwards := make([][]core.Op, n)
	for i := uint64(0); i < n; i++ {
		forwards[i] = a.Next(i)
	}
	for i := uint64(n); i > 0; i-- {
		if !reflect.DeepEqual(forwards[i-1], b.Next(i-1)) {
			t.Fatalf("seq %d depends on the order of the draws", i-1)
		}
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("same seed, different fingerprints")
	}
	if a.Fingerprint() == testStream(8).Fingerprint() {
		t.Error("different seeds, same fingerprint")
	}
}

func TestStreamShape(t *testing.T) {
	s := testStream(3)
	writes, ops := 0, 0
	for seq := uint64(0); seq < 5000; seq++ {
		txn := s.Next(seq)
		if len(txn) < 1 || len(txn) > s.MaxOps {
			t.Fatalf("seq %d has %d ops", seq, len(txn))
		}
		seen := map[core.ItemID]bool{}
		for _, o := range txn {
			if int(o.Item) >= s.Items || uint64(o.Item)%classes != seq%classes {
				t.Fatalf("seq %d touches item %d outside its class", seq, o.Item)
			}
			if seen[o.Item] {
				t.Fatalf("seq %d touches item %d twice", seq, o.Item)
			}
			seen[o.Item] = true
			ops++
			if o.Kind != core.OpWrite {
				continue
			}
			writes++
			if w, ok := WriterOf(o.Value); !ok || w != seq || len(o.Value) != valueLen {
				t.Fatalf("seq %d wrote a value naming %d", seq, w)
			}
			if !bytes.Equal(o.Value, s.value(seq, o.Item)) {
				t.Fatalf("seq %d: value is not reproducible", seq)
			}
		}
		if got := s.Coordinator(seq); got != core.SiteID(seq%4) {
			t.Fatalf("coordinator of %d is %d", seq, got)
		}
	}
	if share := float64(writes) / float64(ops); share < 0.47 || share > 0.53 {
		t.Errorf("write share %.3f, want about 0.5", share)
	}
}

// Transactions in flight together must not share an item, or lock waits
// and deadlock victims would make operations fail on a healthy run.
// Clients each draw from lanes of their own, so however far one client
// runs ahead of another, their transactions stay in different classes.
func TestLanesKeepClientsApart(t *testing.T) {
	s := testStream(11)
	for _, width := range []int{1, 8, 32, 128} {
		var l lanes
		owner := map[core.ItemID]int{}
		seen := map[uint64]bool{}
		// Client 0 runs 40 transactions ahead for every one of the others.
		for round := 0; round < 3; round++ {
			for lane := 0; lane < width; lane++ {
				n := 1
				if lane == 0 {
					n = 40
				}
				last := uint64(classes)
				for i := 0; i < n; i++ {
					seq := l.next(lane, width)
					if seen[seq] || !l.issued(seq) {
						t.Fatalf("width %d: transaction %d issued twice or not recorded", width, seq)
					}
					seen[seq] = true
					if width <= classes/2 && seq%classes == last {
						t.Fatalf("width %d: lane %d drew class %d twice in a row", width, lane, last)
					}
					last = seq % classes
					for _, o := range s.Next(seq) {
						if other, taken := owner[o.Item]; taken && other != lane {
							t.Fatalf("width %d: lanes %d and %d both touch item %d", width, other, lane, o.Item)
						}
						owner[o.Item] = lane
					}
				}
			}
		}
		if l.issued(uint64(classes) * 1000) {
			t.Errorf("width %d: a transaction nobody drew counts as issued", width)
		}
	}
}

// Over a phase the lanes cover every class and every site, so the whole
// database is in use and the load is spread evenly.
func TestLanesCoverClassesAndSites(t *testing.T) {
	for _, width := range []int{1, 8, 32, 128} {
		for _, sites := range []uint64{4, 6} {
			var l lanes
			classesSeen := map[uint64]bool{}
			perSite := make([]int, sites)
			const turns = 24
			for lane := 0; lane < width; lane++ {
				for i := 0; i < turns*classes/width; i++ {
					seq := l.next(lane, width)
					classesSeen[seq%classes] = true
					perSite[seq%sites]++
				}
			}
			if len(classesSeen) != classes {
				t.Errorf("width %d: %d of %d classes used", width, len(classesSeen), classes)
			}
			for site, n := range perSite {
				if want := turns * classes / int(sites); n < want*9/10 || n > want*11/10 {
					t.Errorf("width %d, %d sites: site %d coordinates %d of %d transactions", width, sites, site, n, turns*classes)
				}
			}
		}
	}
}

// Every phase of every workload must fit the lanes: a client needs at least
// two classes of its own to alternate between.
func TestWorkloadsFitTheLanes(t *testing.T) {
	for _, spec := range specs {
		if widest := workersPerClient * spec.Clients; widest > classes/2 {
			t.Errorf("%s: %d open-loop workers, at most %d fit", spec.Name, widest, classes/2)
		}
		if perClass := spec.Items / classes; perClass < spec.MaxOps {
			t.Errorf("%s: %d items per class, transactions have up to %d operations", spec.Name, perClass, spec.MaxOps)
		}
	}
}
