package failure

import (
	"fmt"
	"math/rand"
	"sort"

	"minraid/internal/core"
)

// RandomConfig parameterizes a randomized fail/recover schedule. The paper
// scripts its failures by hand (§3.1, §4.2); soak runs instead draw many
// schedules from a seeded source to probe state-transition interleavings
// nobody thought to script.
type RandomConfig struct {
	// Sites is the number of database sites.
	Sites int
	// Txns is the number of transactions the schedule spans.
	Txns int
	// Events is how many fail/recover events to attempt. Attempts that
	// find no legal move (everything up and only one site may go down, or
	// nothing to recover) are skipped, so the generated schedule may hold
	// fewer. Defaults to one event per five transactions.
	Events int
	// MaxDown caps the number of simultaneously failed sites. It is
	// clamped to Sites-1: a schedule never takes the last site down, so
	// there is always a coordinator to pick, and the always-one-site-up
	// invariant the copy-control protocol assumes (§1.2, total failures
	// excluded) holds by construction. Defaults to Sites-1.
	MaxDown int
}

func (c *RandomConfig) fillDefaults() error {
	if c.Sites < 2 {
		return fmt.Errorf("failure: random schedule needs >= 2 sites, got %d", c.Sites)
	}
	if c.Txns < 1 {
		return fmt.Errorf("failure: random schedule needs >= 1 txn, got %d", c.Txns)
	}
	if c.Events == 0 {
		c.Events = c.Txns/5 + 1
	}
	if c.MaxDown <= 0 || c.MaxDown > c.Sites-1 {
		c.MaxDown = c.Sites - 1
	}
	return nil
}

// Random draws a valid schedule from rng: fail/recover events at random
// transaction boundaries, never taking the last operational site down.
// The result is sorted, passes Validate, and keeps at least one site up at
// every transaction. Identical (config, rng state) produce identical
// schedules, so a soak epoch is reproducible from its seed.
func Random(cfg RandomConfig, rng *rand.Rand) (Schedule, error) {
	if err := cfg.fillDefaults(); err != nil {
		return Schedule{}, err
	}

	// Draw the firing points first and walk them in order, so each
	// action is decided against the up-set actually in force at that
	// point in the run.
	points := make([]int, cfg.Events)
	for i := range points {
		points[i] = 1 + rng.Intn(cfg.Txns)
	}
	sort.Ints(points)

	up := make([]bool, cfg.Sites)
	for i := range up {
		up[i] = true
	}
	downCount := 0

	sched := Schedule{Txns: cfg.Txns}
	for _, at := range points {
		// Recover when at the failure cap, fail when everything is up,
		// otherwise flip a coin — keeps schedules oscillating through
		// mixed states instead of saturating at either extreme.
		bringUp := downCount > 0 && (downCount >= cfg.MaxDown || rng.Intn(2) == 0)
		var pool []core.SiteID
		for s, isUp := range up {
			if isUp != bringUp {
				pool = append(pool, core.SiteID(s))
			}
		}
		if len(pool) == 0 {
			continue
		}
		site := pool[rng.Intn(len(pool))]
		if bringUp {
			up[site] = true
			downCount--
			sched.Events = append(sched.Events, Event{BeforeTxn: at, Kind: Recover, Site: site})
		} else {
			up[site] = false
			downCount++
			sched.Events = append(sched.Events, Event{BeforeTxn: at, Kind: Fail, Site: site})
		}
	}
	return sched, nil
}
