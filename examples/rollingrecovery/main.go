// Rollingrecovery: a scenario-2-style rolling maintenance window — four
// sites taken down one at a time, as an operator would drain machines for
// upgrades — while transactions keep flowing. With ROWAA plus fail-locks,
// service never stops and no transaction aborts for lack of data ("an
// up-to-date copy of a data item was always available on some site", §4.2.2).
//
// Each returning site's stale copies are refreshed in one batch right
// after its recovery — step two of the paper's proposed two-step recovery
// (§3.2) at a threshold of 100% — instead of waiting for reads to demand
// them.
//
//	go run ./examples/rollingrecovery
package main

import (
	"fmt"
	"log"

	"minraid"
)

const (
	sites       = 4
	items       = 60
	txnsPerStep = 40
)

func main() {
	c, err := minraid.NewCluster(minraid.ClusterConfig{Sites: sites, Items: items})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	gen := minraid.NewUniformWorkload(items, 6, 7)
	allUp := make([]bool, sites)
	for i := range allUp {
		allUp[i] = true
	}

	fmt.Printf("rolling maintenance over %d sites, %d txns per window\n", sites, txnsPerStep)
	dataAborts, detectionAborts := 0, 0

	for victim := 0; victim < sites; victim++ {
		must(c.Fail(minraid.SiteID(victim)))
		fmt.Printf("\n-- maintenance window: site %d down --\n", victim)

		for i := 0; i < txnsPerStep; i++ {
			coord := minraid.SiteID((victim + 1 + i%(sites-1)) % sites)
			id := c.NextTxnID()
			res, err := c.ExecTxn(coord, id, gen.Next(id))
			if err != nil {
				log.Fatal(err)
			}
			if !res.Committed {
				if res.AbortReason == "participating site failed" {
					detectionAborts++ // expected once per window
				} else {
					dataAborts++
				}
			}
		}
		locked, _ := c.FailLockCount(minraid.SiteID((victim+1)%sites), minraid.SiteID(victim))
		fmt.Printf("site %d missed updates on %d items\n", victim, locked)

		st, err := c.Recover(minraid.SiteID(victim))
		must(err)
		copiers, remaining, err := c.DrainFailLocks(allUp, items)
		must(err)
		if remaining != 0 {
			log.Fatalf("site %d still has %d fail-locks after the batch refresh", victim, remaining)
		}
		fmt.Printf("site %d back up in session %d; batch refresh ran %d copier(s)\n",
			victim, st.Session, copiers)
	}

	fmt.Printf("\nrolling maintenance done: %d detection aborts (1 per window is expected), %d data aborts\n",
		detectionAborts, dataAborts)
	if dataAborts != 0 {
		log.Fatal("data became unavailable during rolling maintenance")
	}
	report, err := c.Audit()
	must(err)
	fmt.Println(report)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
