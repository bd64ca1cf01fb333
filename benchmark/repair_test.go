package main

import (
	"testing"
	"time"

	"minraid/internal/core"
)

// A site that wrongly suspects another — here because the link between
// them was cut for one transaction — must be repairable with the managing
// site's tools, and the ledger must still hold afterwards.
func TestRepairAfterFalseSuspicion(t *testing.T) {
	spec := Spec{
		Name: "repair", Sites: 4, Items: 4096, MaxOps: 10, WritePct: 50,
		AckTimeout: 50 * time.Millisecond, Clients: 1,
	}
	d, err := deploy(spec, 1, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	stream := &Stream{Seed: 1, Items: spec.Items, Sites: spec.Sites, MaxOps: spec.MaxOps, WritePct: spec.WritePct}
	dr := newDriver(d, stream)
	dr.closed(1, 200, time.Time{})

	// Cut 0 <-> 2 and let site 0 coordinate a writing transaction: site 2
	// stays silent, site 0 announces it failed, site 2 is in fact up.
	d.c.Partition([]core.SiteID{0}, []core.SiteID{2}, true)
	for tries := 0; ; tries++ {
		seq := dr.lanes.next(0, 1)
		if stream.Coordinator(seq) == 0 && HasWrites(stream.Next(seq)) {
			dr.exec(seq)
			break
		}
		if tries > 1000 {
			t.Fatal("no writing transaction for site 0 in the stream")
		}
	}
	d.c.Partition([]core.SiteID{0}, []core.SiteID{2}, false)
	st, err := d.c.Status(0, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Vector[2].Status == core.StatusUp {
		t.Fatal("the cut did not make site 0 suspect site 2; the test proves nothing")
	}
	dr.closed(1, 200, time.Time{}) // both sides keep committing, apart

	if err := dr.repair("test"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < spec.Sites; i++ {
		st, err := d.c.Status(core.SiteID(i), false)
		if err != nil {
			t.Fatal(err)
		}
		for j, rec := range st.Vector {
			if rec.Status != core.StatusUp {
				t.Errorf("after the repair site %d still marks site %d %v", i, j, rec.Status)
			}
		}
	}
	dr.closed(1, 200, time.Time{})
	if _, _, err := d.settle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	dump, err := d.c.Dump(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := dr.verify(dump); err != nil {
		t.Errorf("ledger after the repair: %v", err)
	}
}

// The ledger check itself must notice a lost write and a foreign value.
func TestVerifyCatchesLostAndForeignWrites(t *testing.T) {
	spec := Spec{Name: "verify", Sites: 2, Items: 1024, MaxOps: 5, WritePct: 100, Clients: 1, AckTimeout: time.Second}
	d, err := deploy(spec, 1, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	stream := &Stream{Seed: 9, Items: spec.Items, Sites: spec.Sites, MaxOps: spec.MaxOps, WritePct: spec.WritePct}
	dr := newDriver(d, stream)
	dr.closed(1, 300, time.Time{})
	dump, err := d.c.Dump(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := dr.verify(dump); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	written := -1
	for i, iv := range dump {
		if iv.Version > 0 {
			written = i
			break
		}
	}
	if written < 0 {
		t.Fatal("nothing was written")
	}
	saved := dump[written]
	dump[written].Version = 0
	if dr.verify(dump) == nil {
		t.Error("a copy behind its acknowledged version passed")
	}
	dump[written] = saved
	dump[written].Value = append([]byte(nil), saved.Value...)
	dump[written].Value[valueLen-1] ^= 1
	if dr.verify(dump) == nil {
		t.Error("a value no transaction wrote passed")
	}
}
