package failure

import (
	"sort"

	"minraid/internal/core"
	"minraid/internal/transport"
)

// DownLinks compiles the event into the directed links it cuts, sorted
// by (From, To) so SetLinkDown calls happen in a deterministic order.
// Heal events compile to nil — they restore whatever is down — and so
// do site events.
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

// LinkControl is the network surface link events drive.
// *transport.Chaos satisfies it, as does *cluster.Cluster, which forwards
// to the one Chaos layer it runs over either wire.
type LinkControl interface {
	SetLinkDown(from, to core.SiteID, down bool)
}

// Topology tracks which directed links the link events currently hold
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

// Drive applies one link event: it updates the tracked topology and issues
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
