package experiment

import (
	"fmt"
	"strings"

	"minraid/internal/cluster"
	"minraid/internal/core"
	"minraid/internal/txn"
	"minraid/internal/workload"
)

// ReplicationDegreeReport sweeps the replication degree under one site
// failure — quantifying the trade the paper's §3.2 partial-replication
// discussion gestures at: fewer copies cost availability (some items lose
// their last copy when a site dies) but save write messages.
type ReplicationDegreeReport struct {
	Sites, Items, Txns int
	Rows               []ReplicationDegreeRow
}

// ReplicationDegreeRow is one sweep point.
type ReplicationDegreeRow struct {
	Degree int
	// CommittedPct is the fraction of transactions that committed with
	// one site down.
	CommittedPct float64
	// UnavailableAborts counts aborts because an item had no available
	// copy (read or write).
	UnavailableAborts int
	// MsgsPerTxn is the mean message count per transaction.
	MsgsPerTxn float64
}

// String renders the sweep.
func (r ReplicationDegreeReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: replication degree vs availability (%d sites, one down, %d txns)\n", r.Sites, r.Txns)
	fmt.Fprintf(&b, "  %8s %12s %20s %12s\n", "degree", "committed", "unavailable aborts", "msgs/txn")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %8d %11.0f%% %20d %12.1f\n",
			row.Degree, row.CommittedPct, row.UnavailableAborts, row.MsgsPerTxn)
	}
	return b.String()
}

// RunReplicationDegree sweeps the replication degree from 1 to full on a
// system with one failed site, measuring commit rate and message cost.
func RunReplicationDegree(cfg Config, txns int) (*ReplicationDegreeReport, error) {
	cfg = cfg.withDefaults(4, 50, 5)
	if txns == 0 {
		txns = 150
	}
	report := &ReplicationDegreeReport{Sites: cfg.Sites, Items: cfg.Items, Txns: txns}

	for degree := 1; degree <= cfg.Sites; degree++ {
		ccfg := cfg.Config
		ccfg.ReplicationDegree = degree
		c, err := cluster.New(ccfg)
		if err != nil {
			return nil, err
		}
		gen := workload.NewUniform(cfg.Items, cfg.MaxOps, cfg.Seed)

		if err := c.Fail(core.SiteID(cfg.Sites - 1)); err != nil {
			c.Close()
			return nil, err
		}
		// Detection write so the vector converges before measuring.
		id := c.NextTxnID()
		if _, err := c.ExecTxn(0, id, []core.Op{core.Write(0, workload.Payload(id, 0))}); err != nil {
			c.Close()
			return nil, err
		}

		row := ReplicationDegreeRow{Degree: degree}
		before := c.MessagesSent()
		for i := 0; i < txns; i++ {
			id := c.NextTxnID()
			out, err := c.ExecTxn(core.SiteID(i%(cfg.Sites-1)), id, gen.Next(id))
			if err != nil {
				c.Close()
				return nil, err
			}
			switch {
			case out.Committed:
				row.CommittedPct++
			case out.AbortReason == txn.AbortWriteUnavailable || out.AbortReason == txn.AbortNoDonor:
				row.UnavailableAborts++
			}
		}
		row.CommittedPct = 100 * row.CommittedPct / float64(txns)
		row.MsgsPerTxn = float64(c.MessagesSent()-before) / float64(txns)
		report.Rows = append(report.Rows, row)
		c.Close()
	}
	return report, nil
}
