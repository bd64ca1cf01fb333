package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"testing"
	"testing/quick"

	"minraid/internal/core"
)

func TestMemStoreInitial(t *testing.T) {
	s := NewMemStore(10, []byte("init"))
	if s.Items() != 10 {
		t.Fatalf("Items = %d", s.Items())
	}
	iv, err := s.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Item != 3 || iv.Version != 0 || !bytes.Equal(iv.Value, []byte("init")) {
		t.Errorf("Get(3) = %v", iv)
	}
}

func TestMemStoreApplyGet(t *testing.T) {
	s := NewMemStore(5, nil)
	applied, err := s.Apply(core.ItemVersion{Item: 2, Version: 7, Value: []byte("x")})
	if err != nil || !applied {
		t.Fatalf("apply: %v %v", applied, err)
	}
	iv, _ := s.Get(2)
	if iv.Version != 7 || !bytes.Equal(iv.Value, []byte("x")) {
		t.Errorf("Get = %v", iv)
	}
}

func TestMemStoreStaleApplyIgnored(t *testing.T) {
	s := NewMemStore(5, nil)
	s.Apply(core.ItemVersion{Item: 0, Version: 10, Value: []byte("new")})
	applied, err := s.Apply(core.ItemVersion{Item: 0, Version: 4, Value: []byte("old")})
	if err != nil {
		t.Fatal(err)
	}
	if applied {
		t.Error("stale apply reported applied")
	}
	iv, _ := s.Get(0)
	if iv.Version != 10 || !bytes.Equal(iv.Value, []byte("new")) {
		t.Errorf("stale apply overwrote: %v", iv)
	}
}

func TestMemStoreEqualVersionReapplies(t *testing.T) {
	s := NewMemStore(1, nil)
	s.Apply(core.ItemVersion{Item: 0, Version: 3, Value: []byte("a")})
	applied, _ := s.Apply(core.ItemVersion{Item: 0, Version: 3, Value: []byte("a")})
	if !applied {
		t.Error("idempotent re-apply rejected")
	}
}

func TestMemStoreNoSuchItem(t *testing.T) {
	s := NewMemStore(2, nil)
	if _, err := s.Get(2); !errors.Is(err, ErrNoItem) {
		t.Errorf("Get: %v", err)
	}
	if _, err := s.Apply(core.ItemVersion{Item: 9}); !errors.Is(err, ErrNoItem) {
		t.Errorf("Apply: %v", err)
	}
	if _, err := s.Dump(5, 6); !errors.Is(err, ErrNoItem) {
		t.Errorf("Dump: %v", err)
	}
}

func TestMemStoreDump(t *testing.T) {
	s := NewMemStore(10, nil)
	s.Apply(core.ItemVersion{Item: 4, Version: 2, Value: []byte("v")})
	got, err := s.Dump(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Item != 3 || got[1].Version != 2 || got[2].Item != 5 {
		t.Errorf("Dump = %v", got)
	}
	// Out-of-range last is clamped.
	all, err := s.Dump(0, 999)
	if err != nil || len(all) != 10 {
		t.Errorf("clamped dump: %v %v", len(all), err)
	}
	if _, err := s.Dump(5, 3); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestMemStoreGetReturnsCopy(t *testing.T) {
	s := NewMemStore(1, nil)
	s.Apply(core.ItemVersion{Item: 0, Version: 1, Value: []byte{1, 2}})
	iv, _ := s.Get(0)
	iv.Value[0] = 99
	again, _ := s.Get(0)
	if again.Value[0] != 1 {
		t.Error("Get aliases internal buffer")
	}
}

func TestMemStoreApplyClonesInput(t *testing.T) {
	s := NewMemStore(1, nil)
	val := []byte{5}
	s.Apply(core.ItemVersion{Item: 0, Version: 1, Value: val})
	val[0] = 6
	iv, _ := s.Get(0)
	if iv.Value[0] != 5 {
		t.Error("Apply aliases caller buffer")
	}
}

func TestMemStoreBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-size store accepted")
		}
	}()
	NewMemStore(0, nil)
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWAL(WALOptions{Dir: dir, Items: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.Apply(core.ItemVersion{Item: core.ItemID(i), Version: core.TxnID(i + 1), Value: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenWAL(WALOptions{Dir: dir, Items: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < 8; i++ {
		iv, err := re.Get(core.ItemID(i))
		if err != nil {
			t.Fatal(err)
		}
		if iv.Version != core.TxnID(i+1) || iv.Value[0] != byte(i) {
			t.Errorf("item %d after reopen: %v", i, iv)
		}
	}
}

func TestVersionsMatchDump(t *testing.T) {
	dir := t.TempDir()
	wal, err := OpenWAL(WALOptions{Dir: dir, Items: 5})
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemStore(5, []byte("x"))
	for _, s := range []Store{mem, wal} {
		s.Apply(core.ItemVersion{Item: 1, Version: 7, Value: []byte("a")})
		s.Apply(core.ItemVersion{Item: 3, Version: 4, Value: []byte("b")})
		s.Apply(core.ItemVersion{Item: 3, Version: 2, Value: []byte("stale")})
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenWAL(WALOptions{Dir: dir, Items: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	want := []uint64{0, 7, 0, 4, 0}
	for name, s := range map[string]Store{"mem": mem, "wal after reopen": re} {
		got := s.Versions()
		if len(got) != len(want) {
			t.Fatalf("%s: Versions() = %v, want %v", name, got, want)
		}
		dump, err := s.Dump(0, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] || uint64(dump[i].Version) != got[i] {
				t.Errorf("%s: Versions() = %v, want %v (dump %v)", name, got, want, dump)
				break
			}
		}
	}
}

func TestWALCompactAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWAL(WALOptions{Dir: dir, Items: 4})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 10; v++ {
		s.Apply(core.ItemVersion{Item: 1, Version: core.TxnID(v), Value: []byte{byte(v)}})
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Post-compaction writes land in the fresh log.
	s.Apply(core.ItemVersion{Item: 2, Version: 99, Value: []byte("after")})
	s.Close()

	re, err := OpenWAL(WALOptions{Dir: dir, Items: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	iv, _ := re.Get(1)
	if iv.Version != 10 || iv.Value[0] != 10 {
		t.Errorf("item 1 = %v", iv)
	}
	iv, _ = re.Get(2)
	if iv.Version != 99 || string(iv.Value) != "after" {
		t.Errorf("item 2 = %v", iv)
	}
}

func TestWALAutoCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWAL(WALOptions{Dir: dir, Items: 2, CompactEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 12; v++ {
		s.Apply(core.ItemVersion{Item: 0, Version: core.TxnID(v), Value: []byte{byte(v)}})
	}
	s.Close()
	re, err := OpenWAL(WALOptions{Dir: dir, Items: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	iv, _ := re.Get(0)
	if iv.Version != 12 {
		t.Errorf("after auto-compactions: %v", iv)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWAL(WALOptions{Dir: dir, Items: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Apply(core.ItemVersion{Item: 0, Version: 1, Value: []byte("good")})
	s.Apply(core.ItemVersion{Item: 1, Version: 2, Value: []byte("alsogood")})
	s.Close()

	// Simulate a crash mid-append: chop bytes off the final record.
	path := dir + "/" + walFile
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	re, err := OpenWAL(WALOptions{Dir: dir, Items: 2})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer re.Close()
	iv, _ := re.Get(0)
	if iv.Version != 1 || string(iv.Value) != "good" {
		t.Errorf("intact record lost: %v", iv)
	}
	iv, _ = re.Get(1)
	if iv.Version != 0 {
		t.Errorf("torn record partially applied: %v", iv)
	}
	// The torn bytes must be gone so new appends start clean.
	re.Apply(core.ItemVersion{Item: 1, Version: 5, Value: []byte("retry")})
	re.Close()
	re2, err := OpenWAL(WALOptions{Dir: dir, Items: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	iv, _ = re2.Get(1)
	if iv.Version != 5 {
		t.Errorf("append after truncation lost: %v", iv)
	}
}

func TestWALSizeMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWAL(WALOptions{Dir: dir, Items: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.Apply(core.ItemVersion{Item: 0, Version: 1, Value: []byte("x")})
	s.Compact()
	s.Close()
	if _, err := OpenWAL(WALOptions{Dir: dir, Items: 8}); err == nil {
		t.Error("snapshot size mismatch accepted")
	}
}

func TestWALClosedStore(t *testing.T) {
	s, err := OpenWAL(WALOptions{Dir: t.TempDir(), Items: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Apply(core.ItemVersion{Item: 0, Version: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("Apply on closed: %v", err)
	}
	if err := s.Compact(); !errors.Is(err, ErrClosed) {
		t.Errorf("Compact on closed: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestWALSyncMode(t *testing.T) {
	s, err := OpenWAL(WALOptions{Dir: t.TempDir(), Items: 1, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Apply(core.ItemVersion{Item: 0, Version: 1, Value: []byte("s")}); err != nil {
		t.Fatal(err)
	}
}

func TestWALBadItemCount(t *testing.T) {
	if _, err := OpenWAL(WALOptions{Dir: t.TempDir(), Items: 0}); err == nil {
		t.Error("zero items accepted")
	}
}

// Property: a MemStore and a WALStore fed the same random apply sequence
// agree item for item, and the WALStore still agrees after reopen.
func TestStoreEquivalenceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const items = 6
		dir := t.TempDir()
		mem := NewMemStore(items, nil)
		wal, err := OpenWAL(WALOptions{Dir: dir, Items: items, CompactEvery: 7})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			iv := core.ItemVersion{
				Item:    core.ItemID(rng.Intn(items)),
				Version: core.TxnID(rng.Intn(20)),
				Value:   []byte{byte(rng.Intn(256))},
			}
			a1, e1 := mem.Apply(iv)
			a2, e2 := wal.Apply(iv)
			if a1 != a2 || (e1 == nil) != (e2 == nil) {
				return false
			}
		}
		wal.Close()
		re, err := OpenWAL(WALOptions{Dir: dir, Items: items})
		if err != nil {
			return false
		}
		defer re.Close()
		for i := 0; i < items; i++ {
			a, _ := mem.Get(core.ItemID(i))
			b, _ := re.Get(core.ItemID(i))
			if a.Version != b.Version || !bytes.Equal(a.Value, b.Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestWALCrashAtEveryOffset simulates a crash at every possible point of a
// log write: for each prefix length of the final WAL file, reopening must
// succeed and recover exactly the records whose frames are intact — never
// a partial record, never an error.
func TestWALCrashAtEveryOffset(t *testing.T) {
	// Build a reference WAL.
	master := t.TempDir()
	s, err := OpenWAL(WALOptions{Dir: master, Items: 4})
	if err != nil {
		t.Fatal(err)
	}
	var versions []core.TxnID
	for v := 1; v <= 6; v++ {
		iv := core.ItemVersion{Item: core.ItemID(v % 4), Version: core.TxnID(v), Value: []byte{byte(v), byte(v)}}
		if _, err := s.Apply(iv); err != nil {
			t.Fatal(err)
		}
		versions = append(versions, iv.Version)
	}
	s.Close()
	walBytes, err := os.ReadFile(master + "/" + walFile)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(walBytes); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(dir+"/"+walFile, walBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenWAL(WALOptions{Dir: dir, Items: 4})
		if err != nil {
			t.Fatalf("cut %d: reopen failed: %v", cut, err)
		}
		// Every recovered copy must be one of the written versions (or
		// the initial version 0) — no torn record may surface.
		maxSeen := core.TxnID(0)
		for i := 0; i < 4; i++ {
			iv, err := re.Get(core.ItemID(i))
			if err != nil {
				t.Fatal(err)
			}
			if iv.Version != 0 {
				ok := false
				for _, v := range versions {
					if iv.Version == v {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("cut %d: item %d has unknown version %d", cut, i, iv.Version)
				}
				if len(iv.Value) != 2 || iv.Value[0] != byte(iv.Version) {
					t.Fatalf("cut %d: item %d torn value %v for version %d", cut, i, iv.Value, iv.Version)
				}
			}
			if iv.Version > maxSeen {
				maxSeen = iv.Version
			}
		}
		// Recovery is prefix-faithful: a longer prefix never recovers
		// fewer records. (maxSeen is monotone in cut; spot-check ends.)
		if cut == len(walBytes) && maxSeen != versions[len(versions)-1] {
			t.Fatalf("full log recovered only up to version %d", maxSeen)
		}
		if cut == 0 && maxSeen != 0 {
			t.Fatalf("empty log recovered version %d", maxSeen)
		}
		// The store must accept new writes after any crash point.
		if _, err := re.Apply(core.ItemVersion{Item: 0, Version: 100, Value: []byte{9, 9}}); err != nil {
			t.Fatalf("cut %d: apply after recovery: %v", cut, err)
		}
		re.Close()
	}
}
