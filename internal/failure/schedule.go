// Package failure expresses fault scripts as declarative schedules keyed
// to transaction numbers, as the paper scripts its experiments: "Before
// transaction 1, we caused site 0 to fail. For transactions 1-100 we kept
// site 0 down and processed transactions on site 1. Before transaction
// 101, site 0 was brought up..." (§3.1).
//
// A Schedule is one ordered stream of events. Site events fail and recover
// whole sites, as the paper's experiments do. Link events cut and heal
// directed links — symmetric partitions into named groups, asymmetric
// one-way drops, partial cuts — because fail-locks are defined against
// "site failure or network partitioning" (§1.1), and a partition is the
// case the ROWAA strategy cannot survive alone: both sides of a symmetric
// cut declare the other failed and keep committing.
//
// Every event fires at a transaction boundary (BeforeTxn), which keeps a
// run's fault stream a pure function of its script or seed: no event ever
// lands mid-transaction. The paper's scenarios are hand-written builders;
// the soak harness draws schedules from seeded generators instead.
package failure

import (
	"fmt"
	"hash/fnv"
	"strings"

	"minraid/internal/core"
	"minraid/internal/transport"
)

// Kind classifies one scheduled event.
type Kind uint8

const (
	// Fail takes Site down.
	Fail Kind = iota
	// Recover brings Site back up.
	Recover
	// Partition cuts every link between distinct Groups, both
	// directions — a symmetric split into named groups. Sites in no
	// group keep all their links (a partial partition).
	Partition
	// OneWay cuts the listed directed Links only — asymmetric faults
	// where A's messages to B vanish while B still reaches A.
	OneWay
	// Cut cuts the listed Links in the direction given plus the
	// reverse — a partial cut isolating individual site pairs while
	// the rest of the mesh stays connected.
	Cut
	// Heal restores every link the active episode cut.
	Heal
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Fail:
		return "fail"
	case Recover:
		return "recover"
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

// Link reports whether k acts on links rather than on a whole site.
func (k Kind) Link() bool { return k >= Partition }

// Group is one named side of a symmetric partition.
type Group struct {
	Name  string
	Sites []core.SiteID
}

// Event is one scheduled state change, firing before the given 1-based
// transaction number (1-based, as in the paper).
type Event struct {
	BeforeTxn int
	Kind      Kind
	// Site is the target of a Fail or Recover event.
	Site core.SiteID
	// Groups names the sides of a Partition event.
	Groups []Group
	// Links lists the directed links of a OneWay or Cut event.
	Links []transport.LinkID
}

// String renders the event canonically. Site events read as the paper's
// script does ("before txn 2: fail site 3"); link events in the compact
// form the soak records as an epoch's partition stream ("t5 partition
// A={0} B={1,2}").
func (e Event) String() string {
	if !e.Kind.Link() {
		return fmt.Sprintf("before txn %d: %s %s", e.BeforeTxn, e.Kind, e.Site)
	}
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

// Schedule is an ordered event stream plus the total transaction count.
type Schedule struct {
	// Txns is the number of transactions to run. Zero means "run until
	// the condition the experiment defines" (e.g. full recovery).
	Txns int
	// Events fire in slice order; BeforeTxn values are non-decreasing.
	Events []Event
}

// Validate checks the schedule against a system of sites sites: event
// ordering, site ranges and group shape, and for link events the episode
// rule — at most one fault episode active at a time, every fault followed
// by its heal before the next fault, and no link event past the last
// transaction. A schedule may end with an episode still active; the run's
// epilogue heals it.
func (s Schedule) Validate(sites int) error {
	active := false
	for i, e := range s.Events {
		if e.BeforeTxn < 1 {
			return fmt.Errorf("failure: event %d fires before txn %d (< 1)", i, e.BeforeTxn)
		}
		if i > 0 && e.BeforeTxn < s.Events[i-1].BeforeTxn {
			return fmt.Errorf("failure: events out of order at %d", i)
		}
		switch {
		case !e.Kind.Link():
			if int(e.Site) >= sites {
				return fmt.Errorf("failure: event %d targets %s of %d sites", i, e.Site, sites)
			}
			continue
		case s.Txns > 0 && e.BeforeTxn > s.Txns:
			return fmt.Errorf("failure: event %d fires before txn %d, outside 1..%d", i, e.BeforeTxn, s.Txns)
		case e.Kind == Heal:
			if !active {
				return fmt.Errorf("failure: event %d heals with no episode active", i)
			}
			active = false
			continue
		case active:
			return fmt.Errorf("failure: event %d starts an episode while one is active", i)
		}
		active = true
		if err := validateFault(i, e, sites); err != nil {
			return err
		}
	}
	return nil
}

func validateFault(i int, e Event, sites int) error {
	switch e.Kind {
	case Partition:
		if len(e.Groups) < 2 {
			return fmt.Errorf("failure: event %d partitions into %d group(s)", i, len(e.Groups))
		}
		seen := make(map[core.SiteID]bool)
		for _, g := range e.Groups {
			if len(g.Sites) == 0 {
				return fmt.Errorf("failure: event %d has empty group %q", i, g.Name)
			}
			for _, id := range g.Sites {
				if int(id) >= sites {
					return fmt.Errorf("failure: event %d: site %d out of range", i, id)
				}
				if seen[id] {
					return fmt.Errorf("failure: event %d: site %d in two groups", i, id)
				}
				seen[id] = true
			}
		}
	case OneWay, Cut:
		if len(e.Links) == 0 {
			return fmt.Errorf("failure: event %d cuts no links", i)
		}
		for _, l := range e.Links {
			if int(l.From) >= sites || int(l.To) >= sites {
				return fmt.Errorf("failure: event %d: link %d->%d out of range", i, l.From, l.To)
			}
			if l.From == l.To {
				return fmt.Errorf("failure: event %d: self link %d->%d", i, l.From, l.To)
			}
		}
	default:
		return fmt.Errorf("failure: event %d has unknown kind %d", i, e.Kind)
	}
	return nil
}

// EventsBefore returns the events that fire immediately before
// transaction txnNum, in order.
func (s Schedule) EventsBefore(txnNum int) []Event {
	var out []Event
	for _, e := range s.Events {
		if e.BeforeTxn == txnNum {
			out = append(out, e)
		}
	}
	return out
}

// Merge interleaves two schedules over the same run into one stream
// ordered by firing transaction; at a shared boundary a's events fire
// before b's.
func Merge(a, b Schedule) Schedule {
	out := Schedule{Txns: a.Txns, Events: make([]Event, 0, len(a.Events)+len(b.Events))}
	i, j := 0, 0
	for i < len(a.Events) || j < len(b.Events) {
		if j == len(b.Events) || (i < len(a.Events) && a.Events[i].BeforeTxn <= b.Events[j].BeforeTxn) {
			out.Events = append(out.Events, a.Events[i])
			i++
		} else {
			out.Events = append(out.Events, b.Events[j])
			j++
		}
	}
	return out
}

// NetFingerprint hashes the canonical link-event stream (FNV-1a) of a
// schedule over sites sites. Two schedules fingerprint equal exactly when
// their rendered link events match — the determinism witness the soak's
// -repro check compares.
func (s Schedule) NetFingerprint(sites int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d", sites, s.Txns)
	for _, e := range s.Events {
		if e.Kind.Link() {
			h.Write([]byte{0})
			h.Write([]byte(e.String()))
		}
	}
	return h.Sum64()
}

// Paper scenario builders. Transaction numbering is 1-based, matching the
// text exactly.

// Figure1 is experiment 2's schedule (§3.1): 2 sites; site 0 fails before
// txn 1, recovers before txn 101; transactions continue on both sites
// until site 0 is fully recovered (open-ended, so Txns is a cap).
func Figure1(capTxns int) Schedule {
	return Schedule{
		Txns: capTxns,
		Events: []Event{
			{BeforeTxn: 1, Kind: Fail, Site: 0},
			{BeforeTxn: 101, Kind: Recover, Site: 0},
		},
	}
}

// Scenario1 is experiment 3 scenario 1 (§4.2.1): 2 sites, alternating
// failures, 120 transactions.
func Scenario1() Schedule {
	return Schedule{
		Txns: 120,
		Events: []Event{
			{BeforeTxn: 1, Kind: Fail, Site: 0},
			{BeforeTxn: 26, Kind: Recover, Site: 0},
			{BeforeTxn: 26, Kind: Fail, Site: 1},
			{BeforeTxn: 51, Kind: Recover, Site: 1},
		},
	}
}

// Scenario2 is experiment 3 scenario 2 (§4.2.2): 4 sites, rolling single
// failures every 25 transactions, 160 transactions.
func Scenario2() Schedule {
	return Schedule{
		Txns: 160,
		Events: []Event{
			{BeforeTxn: 1, Kind: Fail, Site: 0},
			{BeforeTxn: 26, Kind: Recover, Site: 0},
			{BeforeTxn: 26, Kind: Fail, Site: 1},
			{BeforeTxn: 51, Kind: Recover, Site: 1},
			{BeforeTxn: 51, Kind: Fail, Site: 2},
			{BeforeTxn: 76, Kind: Recover, Site: 2},
			{BeforeTxn: 76, Kind: Fail, Site: 3},
			{BeforeTxn: 101, Kind: Recover, Site: 3},
		},
	}
}
