package failure

import (
	"fmt"
	"math/rand"

	"minraid/internal/core"
	"minraid/internal/transport"
)

// Region-sized events: WAN fault schedules operate on whole regions, not
// individual sites. The generators here take a site->region assignment
// as a plain []int (index = site id, value = region index) so this package
// stays independent of the geo package that produces assignments.

// regionSites collects the sites of region r from an assignment.
func regionSites(assign []int, r int) []core.SiteID {
	var out []core.SiteID
	for i, a := range assign {
		if a == r {
			out = append(out, core.SiteID(i))
		}
	}
	return out
}

// regionName renders a region label for event groups.
func regionName(names []string, r int) string {
	if r < len(names) {
		return names[r]
	}
	return fmt.Sprintf("region%d", r)
}

// RegionPartition builds a Partition event cutting region r off from
// every other site, both directions — the "a whole region goes dark"
// fault. names labels the groups (falling back to regionN).
func RegionPartition(assign []int, names []string, r int) (Event, error) {
	cut := regionSites(assign, r)
	if len(cut) == 0 {
		return Event{}, fmt.Errorf("failure: region %d has no sites", r)
	}
	var rest []core.SiteID
	for i, a := range assign {
		if a != r {
			rest = append(rest, core.SiteID(i))
		}
	}
	if len(rest) == 0 {
		return Event{}, fmt.Errorf("failure: region %d holds every site; nothing to cut it from", r)
	}
	return Event{Kind: Partition, Groups: []Group{
		{Name: regionName(names, r), Sites: cut},
		{Name: "rest", Sites: rest},
	}}, nil
}

// RegionOneWay builds a OneWay event dropping every directed link from
// the sites of region from to the sites of region to — the asymmetric
// inter-region fault where one region's traffic to another blackholes
// while the reverse path stays up.
func RegionOneWay(assign []int, from, to int) (Event, error) {
	if from == to {
		return Event{}, fmt.Errorf("failure: one-way region drop needs distinct regions, got %d", from)
	}
	src := regionSites(assign, from)
	dst := regionSites(assign, to)
	if len(src) == 0 || len(dst) == 0 {
		return Event{}, fmt.Errorf("failure: regions %d->%d have %d and %d sites", from, to, len(src), len(dst))
	}
	var links []transport.LinkID
	for _, a := range src {
		for _, b := range dst {
			links = append(links, transport.LinkID{From: a, To: b})
		}
	}
	return Event{Kind: OneWay, Links: links}, nil
}

// RegionalConfig parameterizes a randomized region-sized fault schedule.
type RegionalConfig struct {
	// Assign maps site id -> region index; it defines both the site
	// count and the region count.
	Assign []int
	// Names labels regions in partition events (optional).
	Names []string
	// Txns is the number of transactions the schedule spans.
	Txns int
	// Episodes is how many fault episodes to attempt (default one per
	// twelve transactions, like RandomLinks).
	Episodes int
	// MinHold and MaxHold bound episode length in transactions
	// (defaults 2 and 5).
	MinHold, MaxHold int
}

func (c *RegionalConfig) regions() int {
	max := -1
	for _, a := range c.Assign {
		if a > max {
			max = a
		}
	}
	return max + 1
}

func (c *RegionalConfig) fillDefaults() error {
	if len(c.Assign) < 2 || len(c.Assign) > core.MaxSites {
		return fmt.Errorf("failure: regional schedule needs 2..%d sites, got %d", core.MaxSites, len(c.Assign))
	}
	if c.regions() < 2 {
		return fmt.Errorf("failure: regional schedule needs >= 2 regions, got %d", c.regions())
	}
	if c.Txns < 1 {
		return fmt.Errorf("failure: regional schedule needs >= 1 txn, got %d", c.Txns)
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
	return nil
}

// RandomRegional draws a valid region-sized fault schedule: each episode
// is either a region partition (a random region cut off, both
// directions) or a one-way inter-region drop (a random ordered region
// pair blackholed one way), healed MinHold..MaxHold transactions later.
// Identical (config, rng state) produce identical schedules.
func RandomRegional(cfg RegionalConfig, rng *rand.Rand) (Schedule, error) {
	if err := cfg.fillDefaults(); err != nil {
		return Schedule{}, err
	}
	regions := cfg.regions()
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
		var fault Event
		var err error
		if rng.Intn(2) == 0 {
			fault, err = RegionPartition(cfg.Assign, cfg.Names, rng.Intn(regions))
		} else {
			a := rng.Intn(regions)
			b := rng.Intn(regions - 1)
			if b >= a {
				b++
			}
			fault, err = RegionOneWay(cfg.Assign, a, b)
		}
		if err != nil {
			return Schedule{}, err
		}
		fault.BeforeTxn = start
		sched.Events = append(sched.Events, fault, Event{BeforeTxn: heal, Kind: Heal})
		next = heal + 1
	}
	if err := sched.Validate(len(cfg.Assign)); err != nil {
		return Schedule{}, fmt.Errorf("failure: generated regional schedule invalid: %w", err)
	}
	return sched, nil
}
