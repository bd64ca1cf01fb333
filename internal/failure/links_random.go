package failure

import (
	"fmt"
	"math/rand"

	"minraid/internal/core"
	"minraid/internal/transport"
)

// LinkConfig parameterizes a randomized link-fault schedule. Like
// Random, the generator is a pure function of (config, rng
// state), so a soak epoch's partition event stream is reproducible from
// its seed.
type LinkConfig struct {
	// Sites is the number of database sites.
	Sites int
	// Txns is the number of transactions the schedule spans.
	Txns int
	// Episodes is how many fault episodes (cut ... heal) to attempt.
	// Episodes that no longer fit before Txns are dropped. Defaults to
	// one per twelve transactions.
	Episodes int
	// MinHold and MaxHold bound how many transactions an episode stays
	// active before its heal (defaults 2 and 5).
	MinHold, MaxHold int
	// Kinds restricts the fault kinds drawn. Defaults to all three
	// (Partition, OneWay, Cut). Heal is implicit.
	Kinds []Kind
}

func (c *LinkConfig) fillDefaults() error {
	if c.Sites < 2 || c.Sites > core.MaxSites {
		return fmt.Errorf("failure: random schedule needs 2..%d sites, got %d", core.MaxSites, c.Sites)
	}
	if c.Txns < 1 {
		return fmt.Errorf("failure: random schedule needs >= 1 txn, got %d", c.Txns)
	}
	if c.Episodes == 0 {
		c.Episodes = c.Txns/12 + 1
	}
	if c.MinHold <= 0 {
		c.MinHold = 2
	}
	if c.MaxHold < c.MinHold {
		c.MaxHold = c.MinHold + 3
	}
	if len(c.Kinds) == 0 {
		c.Kinds = []Kind{Partition, OneWay, Cut}
	}
	for _, k := range c.Kinds {
		if k == Heal || !k.Link() {
			return fmt.Errorf("failure: a link schedule cannot draw %s as a fault kind", k)
		}
	}
	return nil
}

// RandomLinks draws a valid schedule from rng: non-overlapping fault
// episodes at random transaction boundaries, each healed MinHold..MaxHold
// transactions later. Sites never fail here — Random draws those; a soak
// merges both. Identical (config, rng state) produce identical schedules.
func RandomLinks(cfg LinkConfig, rng *rand.Rand) (Schedule, error) {
	if err := cfg.fillDefaults(); err != nil {
		return Schedule{}, err
	}
	sched := Schedule{Txns: cfg.Txns}
	spread := cfg.Txns/cfg.Episodes + 1
	next := 1
	for ep := 0; ep < cfg.Episodes; ep++ {
		start := next + rng.Intn(spread)
		hold := cfg.MinHold + rng.Intn(cfg.MaxHold-cfg.MinHold+1)
		heal := start + hold
		if heal > cfg.Txns {
			break
		}
		fault := drawFault(cfg, rng)
		fault.BeforeTxn = start
		sched.Events = append(sched.Events, fault, Event{BeforeTxn: heal, Kind: Heal})
		next = heal + 1
	}
	if err := sched.Validate(cfg.Sites); err != nil {
		return Schedule{}, fmt.Errorf("failure: generated schedule invalid: %w", err)
	}
	return sched, nil
}

// drawFault draws one fault event (BeforeTxn unset).
func drawFault(cfg LinkConfig, rng *rand.Rand) Event {
	switch cfg.Kinds[rng.Intn(len(cfg.Kinds))] {
	case Partition:
		groups := 2
		if cfg.Sites >= 4 && rng.Intn(4) == 0 {
			groups = 3
		}
		return Event{Kind: Partition, Groups: drawGroups(cfg.Sites, groups, rng)}
	case OneWay:
		a, b := drawPair(cfg.Sites, rng)
		return Event{Kind: OneWay, Links: []transport.LinkID{{From: a, To: b}}}
	default:
		a, b := drawPair(cfg.Sites, rng)
		return Event{Kind: Cut, Links: []transport.LinkID{{From: a, To: b}}}
	}
}

// drawGroups splits all sites into n named, non-empty groups.
func drawGroups(sites, n int, rng *rand.Rand) []Group {
	assign := make([]int, sites)
	for i := range assign {
		assign[i] = rng.Intn(n)
	}
	// Repair empty groups deterministically: steal the first site of the
	// largest group.
	for g := 0; g < n; g++ {
		if countOf(assign, g) > 0 {
			continue
		}
		largest := 0
		for h := 1; h < n; h++ {
			if countOf(assign, h) > countOf(assign, largest) {
				largest = h
			}
		}
		for i := range assign {
			if assign[i] == largest {
				assign[i] = g
				break
			}
		}
	}
	out := make([]Group, n)
	for g := 0; g < n; g++ {
		out[g].Name = string(rune('A' + g))
		for i, a := range assign {
			if a == g {
				out[g].Sites = append(out[g].Sites, core.SiteID(i))
			}
		}
	}
	return out
}

func countOf(assign []int, g int) int {
	n := 0
	for _, a := range assign {
		if a == g {
			n++
		}
	}
	return n
}

// drawPair draws two distinct sites.
func drawPair(sites int, rng *rand.Rand) (core.SiteID, core.SiteID) {
	a := rng.Intn(sites)
	b := rng.Intn(sites - 1)
	if b >= a {
		b++
	}
	return core.SiteID(a), core.SiteID(b)
}
