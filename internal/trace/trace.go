// Package trace records structured per-transaction events across the
// mini-RAID stack. Every message carries a trace ID (msg.Envelope.Trace)
// that is assigned when a transaction is injected and propagated through
// prepare/commit/copier/clear-fail-locks/control messages; each site
// emits an Event for the protocol phases it executes, and the Recorder
// reconstructs the full span afterwards. The paper reports only mean
// event times (§2.1); spans attribute an individual slow transaction to
// its copier/control/2PC sub-steps.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
)

// ID identifies one traced activity. Transaction traces use the
// transaction ID directly; cluster-administration activities (fail,
// recover, status) draw from a disjoint range above AdminBase so the two
// never collide.
type ID uint64

// AdminBase is the first trace ID used for non-transaction activities.
const AdminBase ID = 1 << 32

// Protocol phases. Kind carries the detail (message kind, abort reason,
// item count) for a phase; Phase is the event class.
const (
	PhaseInject    = "inject"      // client txn handed to its coordinator
	PhaseCoord     = "coord"       // coordinator-side whole-transaction span
	PhasePrepare   = "prepare"     // participant stages writes, votes
	PhaseCommit    = "commit"      // participant applies staged writes
	PhaseAbort     = "abort"       // transaction aborted (Kind = reason)
	PhaseCopier    = "copier"      // coordinator-side copier sub-span
	PhaseCopyServe = "copy.serve"  // donor serves a copy request
	PhaseClearFL   = "clear.flock" // fail-lock clearing at one holder
	PhaseCtrl1     = "ctrl1"       // type-1 control (recovery)
	PhaseCtrl2     = "ctrl2"       // type-2 control (failure announcement)
	PhaseCtrl3     = "ctrl3"       // type-3 control (re-replication)
	PhaseRead      = "read"        // remote read served
	PhaseScrub     = "scrub"       // background scrubber pass
)

// Event is one structured trace record.
type Event struct {
	TraceID ID
	Site    core.SiteID
	Phase   string
	Kind    string
	At      time.Time
	Dur     time.Duration
}

// String renders one event line.
func (e Event) String() string {
	site := fmt.Sprintf("site %d", e.Site)
	if e.Site == core.ManagingSite {
		site = "manager"
	}
	s := fmt.Sprintf("%-8s %-11s dur=%v", site, e.Phase, e.Dur)
	if e.Kind != "" {
		s += " [" + e.Kind + "]"
	}
	return s
}

// DefaultCapacity bounds the recorder's ring buffer. At roughly ten
// events per transaction this covers several thousand recent
// transactions without unbounded growth under heavy traffic.
const DefaultCapacity = 1 << 16

// Recorder collects events into a bounded ring buffer and counts
// messages per wire kind. All methods are safe for concurrent use and
// are no-ops on a nil receiver, so call sites need no guards when
// tracing is disabled.
type Recorder struct {
	mu      sync.Mutex
	events  []Event
	next    int
	wrapped bool
	// kinds counts messages by wire kind; every send bumps one, so they
	// are atomics indexed by the kind byte, not a map under mu.
	kinds [1 << 8]atomic.Uint64
}

// NewRecorder returns a recorder holding up to capacity events
// (DefaultCapacity if capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{events: make([]Event, capacity)}
}

// Record appends one event, evicting the oldest when full.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events[r.next] = ev
	r.next++
	if r.next == len(r.events) {
		r.next = 0
		r.wrapped = true
	}
	r.mu.Unlock()
}

// Emit records a completed phase that began at start: At=start,
// Dur=time since start.
func (r *Recorder) Emit(id ID, site core.SiteID, phase, kind string, start time.Time) {
	if r == nil {
		return
	}
	r.Record(Event{TraceID: id, Site: site, Phase: phase, Kind: kind, At: start, Dur: time.Since(start)})
}

// CountMessage increments the per-message-kind counter. Transports call
// this once per envelope sent.
func (r *Recorder) CountMessage(kind msg.Kind) {
	if r == nil {
		return
	}
	r.kinds[kind].Add(1)
}

// MessageCounts returns a snapshot of the message counters, keyed by kind
// name; kinds never sent are absent.
func (r *Recorder) MessageCounts() map[string]uint64 {
	if r == nil {
		return nil
	}
	out := make(map[string]uint64)
	for k := range r.kinds {
		if n := r.kinds[k].Load(); n > 0 {
			out[msg.Kind(k).String()] = n
		}
	}
	return out
}

// Events returns a chronological copy of the retained events.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}

func (r *Recorder) snapshotLocked() []Event {
	var out []Event
	if r.wrapped {
		out = make([]Event, 0, len(r.events))
		out = append(out, r.events[r.next:]...)
		out = append(out, r.events[:r.next]...)
	} else {
		out = make([]Event, r.next)
		copy(out, r.events[:r.next])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At.Before(out[j].At) })
	return out
}

// Span returns every retained event for one trace ID in timestamp order.
func (r *Recorder) Span(id ID) Span {
	if r == nil {
		return Span{ID: id}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := Span{ID: id}
	for _, ev := range r.snapshotLocked() {
		if ev.TraceID == id {
			sp.Events = append(sp.Events, ev)
		}
	}
	return sp
}

// Reset discards all events and counters, keeping capacity.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.next = 0
	r.wrapped = false
	r.mu.Unlock()
	for k := range r.kinds {
		r.kinds[k].Store(0)
	}
}

// Span is the reconstructed timeline of one traced activity.
type Span struct {
	ID     ID
	Events []Event
}

// Start returns the earliest event timestamp (zero if empty).
func (s Span) Start() time.Time {
	if len(s.Events) == 0 {
		return time.Time{}
	}
	return s.Events[0].At
}

// End returns the latest event completion time (At+Dur) across the span.
func (s Span) End() time.Time {
	var end time.Time
	for _, ev := range s.Events {
		if t := ev.At.Add(ev.Dur); t.After(end) {
			end = t
		}
	}
	return end
}

// Duration returns End minus Start.
func (s Span) Duration() time.Duration {
	if len(s.Events) == 0 {
		return 0
	}
	return s.End().Sub(s.Start())
}

// Phases returns the set of phases present, in first-occurrence order.
func (s Span) Phases() []string {
	seen := make(map[string]bool)
	var out []string
	for _, ev := range s.Events {
		if !seen[ev.Phase] {
			seen[ev.Phase] = true
			out = append(out, ev.Phase)
		}
	}
	return out
}

// Timeline renders the span as one line per event with offsets from the
// span start.
func (s Span) Timeline() string {
	if len(s.Events) == 0 {
		return fmt.Sprintf("trace %d: no events recorded\n", uint64(s.ID))
	}
	start := s.Start()
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d: %d events over %v\n", uint64(s.ID), len(s.Events), s.Duration())
	for _, ev := range s.Events {
		fmt.Fprintf(&b, "  +%-12v %s\n", ev.At.Sub(start), ev.String())
	}
	return b.String()
}
