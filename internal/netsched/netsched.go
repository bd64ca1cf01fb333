// Package netsched is a deterministic network-topology scheduler: from a
// (seed, config) pair it generates a timed stream of link-level fault
// events — symmetric partitions into named groups, asymmetric one-way
// drops, partial cuts, and heals — and drives them onto any network that
// exposes per-directed-link control: transport.Chaos, the one fault layer,
// or a cluster, which runs one over either wire.
//
// The paper's experiments fail whole sites; fail-locks, however, are
// defined against "site failure or network partitioning" (§1.1), and a
// partition is the case the ROWAA strategy cannot survive alone: both
// sides of a symmetric cut declare the other failed and keep committing.
// The soak harness uses this package to schedule such cuts at transaction
// boundaries, reproducibly from a seed, so split-brain formation and
// heal-time reconciliation can be tested as ordinary regression runs.
//
// Like failure.Schedule, events fire at transaction boundaries
// (BeforeTxn), which keeps a run's event stream a pure function of the
// seed: no event ever lands mid-transaction.
package netsched

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"minraid/internal/core"
	"minraid/internal/transport"
)

// Kind classifies one scheduler event.
type Kind uint8

const (
	// Partition cuts every link between distinct groups, both
	// directions — a symmetric split into named groups. Sites in no
	// group keep all their links (a partial partition).
	Partition Kind = iota
	// OneWay cuts the listed directed links only — asymmetric faults
	// where A's messages to B vanish while B still reaches A.
	OneWay
	// Cut cuts the listed links in the direction given plus the
	// reverse — a partial cut isolating individual site pairs while
	// the rest of the mesh stays connected.
	Cut
	// Heal restores every link the active episode cut.
	Heal
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Partition:
		return "partition"
	case OneWay:
		return "oneway"
	case Cut:
		return "cut"
	case Heal:
		return "heal"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Group is one named side of a symmetric partition.
type Group struct {
	Name  string
	Sites []core.SiteID
}

// Event is one scheduled topology change, firing before the given
// 1-based transaction number.
type Event struct {
	BeforeTxn int
	Kind      Kind
	// Groups names the sides of a Partition event.
	Groups []Group
	// Links lists the directed links of a OneWay or Cut event.
	Links []transport.LinkID
}

// DownLinks compiles the event into the directed links it cuts, sorted
// by (From, To) so SetLinkDown calls happen in a deterministic order.
// Heal events compile to nil — they restore whatever is down.
func (e Event) DownLinks() []transport.LinkID {
	var out []transport.LinkID
	switch e.Kind {
	case Partition:
		for i, gi := range e.Groups {
			for j, gj := range e.Groups {
				if i == j {
					continue
				}
				for _, a := range gi.Sites {
					for _, b := range gj.Sites {
						out = append(out, transport.LinkID{From: a, To: b})
					}
				}
			}
		}
	case OneWay:
		out = append(out, e.Links...)
	case Cut:
		for _, l := range e.Links {
			out = append(out, l, transport.LinkID{From: l.To, To: l.From})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	// Dedup (a Cut listing both directions would otherwise double up).
	dedup := out[:0]
	for i, l := range out {
		if i == 0 || l != out[i-1] {
			dedup = append(dedup, l)
		}
	}
	return dedup
}

// String renders the event canonically; the soak records these strings as
// the epoch's partition event stream and the repro check compares them.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t%d %s", e.BeforeTxn, e.Kind)
	switch e.Kind {
	case Partition:
		for _, g := range e.Groups {
			ids := make([]string, len(g.Sites))
			for i, s := range g.Sites {
				ids[i] = fmt.Sprintf("%d", s)
			}
			fmt.Fprintf(&b, " %s={%s}", g.Name, strings.Join(ids, ","))
		}
	case OneWay:
		for _, l := range e.Links {
			fmt.Fprintf(&b, " %d->%d", l.From, l.To)
		}
	case Cut:
		for _, l := range e.Links {
			fmt.Fprintf(&b, " %d<->%d", l.From, l.To)
		}
	}
	return b.String()
}

// Schedule is a validated event stream over a fixed-size system.
type Schedule struct {
	Sites int
	Txns  int
	// Events fire in slice order; BeforeTxn values are non-decreasing.
	Events []Event
}

// Validate checks the schedule: dimensions, event ordering, site ranges,
// group shape, and episode alternation (at most one fault episode active
// at a time, every fault followed by its heal before the next fault; a
// schedule may end with an episode still active — the run's epilogue
// heals it).
func (s Schedule) Validate() error {
	if s.Sites < 2 || s.Sites > core.MaxSites {
		return fmt.Errorf("netsched: %d sites out of range", s.Sites)
	}
	if s.Txns < 1 {
		return fmt.Errorf("netsched: %d txns out of range", s.Txns)
	}
	active := false
	prev := 0
	for i, e := range s.Events {
		if e.BeforeTxn < 1 || e.BeforeTxn > s.Txns {
			return fmt.Errorf("netsched: event %d fires before txn %d, outside 1..%d", i, e.BeforeTxn, s.Txns)
		}
		if e.BeforeTxn < prev {
			return fmt.Errorf("netsched: event %d fires before txn %d, after an event at %d", i, e.BeforeTxn, prev)
		}
		prev = e.BeforeTxn
		if e.Kind == Heal {
			if !active {
				return fmt.Errorf("netsched: event %d heals with no episode active", i)
			}
			active = false
			continue
		}
		if active {
			return fmt.Errorf("netsched: event %d starts an episode while one is active", i)
		}
		active = true
		if err := s.validateFault(i, e); err != nil {
			return err
		}
	}
	return nil
}

func (s Schedule) validateFault(i int, e Event) error {
	switch e.Kind {
	case Partition:
		if len(e.Groups) < 2 {
			return fmt.Errorf("netsched: event %d partitions into %d group(s)", i, len(e.Groups))
		}
		seen := make(map[core.SiteID]bool)
		for _, g := range e.Groups {
			if len(g.Sites) == 0 {
				return fmt.Errorf("netsched: event %d has empty group %q", i, g.Name)
			}
			for _, id := range g.Sites {
				if int(id) >= s.Sites {
					return fmt.Errorf("netsched: event %d: site %d out of range", i, id)
				}
				if seen[id] {
					return fmt.Errorf("netsched: event %d: site %d in two groups", i, id)
				}
				seen[id] = true
			}
		}
	case OneWay, Cut:
		if len(e.Links) == 0 {
			return fmt.Errorf("netsched: event %d cuts no links", i)
		}
		for _, l := range e.Links {
			if int(l.From) >= s.Sites || int(l.To) >= s.Sites {
				return fmt.Errorf("netsched: event %d: link %d->%d out of range", i, l.From, l.To)
			}
			if l.From == l.To {
				return fmt.Errorf("netsched: event %d: self link %d->%d", i, l.From, l.To)
			}
		}
	default:
		return fmt.Errorf("netsched: event %d has unknown kind %d", i, e.Kind)
	}
	return nil
}

// EventsBefore returns the events firing before the given 1-based
// transaction, in order.
func (s Schedule) EventsBefore(txnNum int) []Event {
	var out []Event
	for _, e := range s.Events {
		if e.BeforeTxn == txnNum {
			out = append(out, e)
		}
	}
	return out
}

// Strings renders every event; the soak stores this as the epoch's
// partition event stream.
func (s Schedule) Strings() []string {
	out := make([]string, len(s.Events))
	for i, e := range s.Events {
		out[i] = e.String()
	}
	return out
}

// Fingerprint hashes the canonical event stream (FNV-1a). Two schedules
// fingerprint equal exactly when their rendered event streams match —
// the determinism witness the soak's -repro check compares.
func (s Schedule) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d", s.Sites, s.Txns)
	for _, e := range s.Events {
		h.Write([]byte{0})
		h.Write([]byte(e.String()))
	}
	return h.Sum64()
}

// LinkControl is the network surface the scheduler drives.
// *transport.Chaos satisfies it, as does *cluster.Cluster, which forwards
// to the one Chaos layer it runs over either wire.
type LinkControl interface {
	SetLinkDown(from, to core.SiteID, down bool)
}

// Topology tracks which directed links the scheduler currently holds
// down, and answers the reachability queries a partition-aware harness
// needs (who can complete a request/reply round trip, who is touched by
// the active episode).
type Topology struct {
	sites int
	down  map[transport.LinkID]bool
}

// NewTopology returns an all-up topology over sites sites.
func NewTopology(sites int) *Topology {
	return &Topology{sites: sites, down: make(map[transport.LinkID]bool)}
}

// Active reports whether any link is currently down.
func (t *Topology) Active() bool { return len(t.down) > 0 }

// Reachable reports whether a and b can complete a request/reply round
// trip: both directed links are up. A one-way cut makes the pair
// unreachable for protocol purposes even though one direction delivers.
func (t *Topology) Reachable(a, b core.SiteID) bool {
	return !t.down[transport.LinkID{From: a, To: b}] && !t.down[transport.LinkID{From: b, To: a}]
}

// Affected reports whether s is an endpoint of any down link — i.e.
// whether the active episode touches it. Suspicions involving affected
// sites are legitimate network evidence and must wait for heal-time
// reconciliation rather than per-transaction false-suspicion repair.
func (t *Topology) Affected(s core.SiteID) bool {
	for l := range t.down {
		if l.From == s || l.To == s {
			return true
		}
	}
	return false
}

// DownLinks returns the currently-down links, sorted.
func (t *Topology) DownLinks() []transport.LinkID {
	out := make([]transport.LinkID, 0, len(t.down))
	for l := range t.down {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Drive applies one event: it updates the tracked topology and issues
// the SetLinkDown calls on lc in deterministic (sorted) order. A Heal
// event restores every link currently down.
func (t *Topology) Drive(lc LinkControl, e Event) {
	if e.Kind == Heal {
		t.HealAll(lc)
		return
	}
	for _, l := range e.DownLinks() {
		if !t.down[l] {
			t.down[l] = true
			lc.SetLinkDown(l.From, l.To, true)
		}
	}
}

// HealAll restores every down link, in deterministic order.
func (t *Topology) HealAll(lc LinkControl) {
	for _, l := range t.DownLinks() {
		lc.SetLinkDown(l.From, l.To, false)
		delete(t.down, l)
	}
}
