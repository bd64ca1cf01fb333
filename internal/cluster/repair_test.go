package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"minraid/internal/core"
)

// TestRepairNonConvergenceNamesThePairs: when the repair cannot converge
// the error must say why. With the 0<->1 link cut both ways, site 0
// declares 1 failed on its first write, and every repair round's recovery
// announcement from 1 dies on the same cut: site 0 is probed first and
// re-finds the same suspect each round while the suspect's real session
// keeps climbing. The error has to show exactly that.
func TestRepairNonConvergenceNamesThePairs(t *testing.T) {
	const ack = 40 * time.Millisecond
	c := newTestCluster(t, Config{Sites: 3, Items: 10, AckTimeout: ack})
	trueUp := []bool{true, true, true}
	c.SetLinkDown(0, 1, true)
	c.SetLinkDown(1, 0, true)
	// The write aborts on the silent participant and announces it failed.
	if _, err := c.Exec(0, []core.Op{core.Write(0, val(1))}); err != nil {
		t.Fatal(err)
	}
	before, err := c.Status(1, false)
	if err != nil {
		t.Fatal(err)
	}

	repairs, err := c.RepairFalseSuspicions(trueUp, ack)
	if err == nil {
		t.Fatalf("repair converged after %d rounds across a cut that swallows every recovery announcement", repairs)
	}
	rounds := 2 * len(trueUp)
	if repairs != rounds {
		t.Errorf("repairs = %d, want the round cap %d", repairs, rounds)
	}
	const pair = "site 0 suspects site 1"
	if got := strings.Count(err.Error(), pair); got != rounds {
		t.Errorf("error names %q %d times, want once per round (%d):\n%v", pair, got, rounds, err)
	}
	if strings.Count(err.Error(), "suspects") != rounds {
		t.Errorf("error names pairs other than %q:\n%v", pair, err)
	}
	// Each repair is a fail + recover of the suspect, so its session moved
	// by one per round; the last round's "after" is where it stands now.
	after, err2 := c.Status(1, false)
	if err2 != nil {
		t.Fatal(err2)
	}
	if want := before.Session + core.SessionNum(rounds); after.Session != want {
		t.Fatalf("suspect's session %d after %d repairs from %d, want %d", after.Session, rounds, before.Session, want)
	}
	if !strings.HasSuffix(err.Error(), fmt.Sprintf("-> %d)", after.Session)) {
		t.Errorf("last round's session-after is not where the suspect stands (%d):\n%v", after.Session, err)
	}
}
