package trace

import (
	"strings"
	"sync"
	"testing"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{})
	r.Emit(1, 0, PhaseCoord, "", time.Now())
	r.CountMessage(msg.KindCommit)
	r.Reset()
	if r.Events() != nil || r.MessageCounts() != nil {
		t.Error("nil recorder returned data")
	}
	if sp := r.Span(1); len(sp.Events) != 0 {
		t.Error("nil recorder returned span events")
	}
}

func TestSpanReconstruction(t *testing.T) {
	r := NewRecorder(64)
	base := time.Now()
	r.Record(Event{TraceID: 7, Site: core.ManagingSite, Phase: PhaseInject, At: base})
	r.Record(Event{TraceID: 7, Site: 0, Phase: PhaseCoord, At: base.Add(time.Millisecond), Dur: 9 * time.Millisecond})
	r.Record(Event{TraceID: 7, Site: 1, Phase: PhasePrepare, At: base.Add(2 * time.Millisecond), Dur: time.Millisecond})
	r.Record(Event{TraceID: 8, Site: 1, Phase: PhasePrepare, At: base.Add(3 * time.Millisecond)})
	r.Record(Event{TraceID: 7, Site: 1, Phase: PhaseCommit, At: base.Add(5 * time.Millisecond), Dur: time.Millisecond})

	sp := r.Span(7)
	if len(sp.Events) != 4 {
		t.Fatalf("span has %d events", len(sp.Events))
	}
	for i := 1; i < len(sp.Events); i++ {
		if sp.Events[i].At.Before(sp.Events[i-1].At) {
			t.Error("span events not sorted by time")
		}
	}
	if got := sp.Phases(); len(got) != 4 || got[0] != PhaseInject || got[3] != PhaseCommit {
		t.Errorf("Phases = %v", got)
	}
	if sp.Start() != base {
		t.Errorf("Start = %v", sp.Start())
	}
	// End is coord's At+Dur = base+10ms (later than commit's base+6ms).
	if sp.End() != base.Add(10*time.Millisecond) {
		t.Errorf("End = %v, want %v", sp.End(), base.Add(10*time.Millisecond))
	}
	if sp.Duration() != 10*time.Millisecond {
		t.Errorf("Duration = %v", sp.Duration())
	}
	tl := sp.Timeline()
	for _, want := range []string{"trace 7", "inject", "coord", "prepare", "commit", "manager"} {
		if !strings.Contains(tl, want) {
			t.Errorf("timeline missing %q:\n%s", want, tl)
		}
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRecorder(4)
	base := time.Now()
	for i := 0; i < 10; i++ {
		r.Record(Event{TraceID: ID(i), At: base.Add(time.Duration(i))})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events", len(evs))
	}
	for i, ev := range evs {
		if ev.TraceID != ID(6+i) {
			t.Errorf("event %d has trace %d, want %d", i, ev.TraceID, 6+i)
		}
	}
	if sp := r.Span(2); len(sp.Events) != 0 {
		t.Error("evicted trace still visible")
	}
}

func TestMessageCounts(t *testing.T) {
	r := NewRecorder(8)
	r.CountMessage(msg.KindCommit)
	r.CountMessage(msg.KindCommit)
	r.CountMessage(msg.KindPrepare)
	got := r.MessageCounts()
	if got["commit"] != 2 || got["prepare"] != 1 {
		t.Errorf("counts = %v", got)
	}
	got["commit"] = 99
	if r.MessageCounts()["commit"] != 2 {
		t.Error("snapshot aliases internal map")
	}
	r.Reset()
	if len(r.MessageCounts()) != 0 || len(r.Events()) != 0 {
		t.Error("reset did not clear")
	}
}

func TestEmit(t *testing.T) {
	r := NewRecorder(8)
	start := time.Now().Add(-5 * time.Millisecond)
	r.Emit(3, 2, PhaseCopier, "items=4", start)
	evs := r.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events", len(evs))
	}
	ev := evs[0]
	if ev.TraceID != 3 || ev.Site != 2 || ev.Phase != PhaseCopier || ev.Kind != "items=4" {
		t.Errorf("event = %+v", ev)
	}
	if ev.At != start || ev.Dur < 5*time.Millisecond {
		t.Errorf("At/Dur = %v/%v", ev.At, ev.Dur)
	}
	if !strings.Contains(ev.String(), "items=4") {
		t.Errorf("String = %q", ev.String())
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(Event{TraceID: ID(g), At: time.Now()})
				r.CountMessage(msg.KindPrepare + msg.Kind(g%3))
				_ = r.Events()
				_ = r.Span(ID(g))
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	for _, n := range r.MessageCounts() {
		total += n
	}
	if total != 8*500 {
		t.Errorf("lost message counts: %d", total)
	}
}
