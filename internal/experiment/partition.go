package experiment

import (
	"bytes"
	"fmt"
	"strings"

	"minraid/internal/cluster"
	"minraid/internal/core"
	"minraid/internal/policy"
)

// PartitionReport records the partition study: what ROWAA and the quorum
// baseline each do when the network splits instead of a site failing.
//
// The fail-lock definition covers "site failure or network partitioning"
// (§1.1), but the ROWAA strategy itself is safe only against fail-stop
// sites: in a symmetric partition each side declares the other failed
// (type-2 control transactions), keeps committing on its own copies, and
// the replicas diverge — a divergence the consistency audit detects via
// the disagreeing fail-lock tables. Quorum consensus refuses the minority
// side instead, trading availability for partition safety. This study
// makes that contrast measurable.
type PartitionReport struct {
	Txns int
	// ROWAA outcome.
	ROWAAMinorityCommits int
	ROWAAMajorityCommits int
	ROWAADiverged        bool // audit found untracked divergence (expected)
	// Quorum outcome.
	QuorumMinorityCommits int
	QuorumMajorityCommits int
	// QuorumHealedReadFresh: after healing, a read coordinated on the
	// former minority side returned the majority's newest value.
	QuorumHealedReadFresh bool
}

// String renders the study.
func (r PartitionReport) String() string {
	var b strings.Builder
	b.WriteString("Extension: symmetric network partition {0} vs {1,2} — site-failure protocols vs partitions\n")
	fmt.Fprintf(&b, "  %-10s %18s %18s %28s\n", "policy", "minority commits", "majority commits", "post-partition state")
	rowaaState := "replicas DIVERGED (detected by audit)"
	if !r.ROWAADiverged {
		rowaaState = "no divergence (unexpected)"
	}
	fmt.Fprintf(&b, "  %-10s %18d %18d   %s\n", "rowaa", r.ROWAAMinorityCommits, r.ROWAAMajorityCommits, rowaaState)
	quorumState := "consistent; healed read is fresh"
	if !r.QuorumHealedReadFresh {
		quorumState = "healed read was stale (unexpected)"
	}
	fmt.Fprintf(&b, "  %-10s %18d %18d   %s\n", "quorum", r.QuorumMinorityCommits, r.QuorumMajorityCommits, quorumState)
	return b.String()
}

// RunPartitionStudy partitions a three-site system into {0} and {1, 2},
// drives writes on both sides, heals, and reports what each protocol did.
func RunPartitionStudy(cfg Config, txns int) (*PartitionReport, error) {
	cfg = cfg.withDefaults(3, 20, 5)
	if txns == 0 {
		txns = 10
	}
	report := &PartitionReport{Txns: txns}

	// ROWAA: both sides keep writing the same item; replicas diverge.
	{
		c, err := cluster.New(cfg.Config)
		if err != nil {
			return nil, err
		}
		minority, majority, err := partitionDrive(c, cfg, txns)
		if err != nil {
			c.Close()
			return nil, err
		}
		report.ROWAAMinorityCommits = minority
		report.ROWAAMajorityCommits = majority
		c.Partition([]core.SiteID{0}, []core.SiteID{1, 2}, false)
		audit, err := c.Audit()
		if err != nil {
			c.Close()
			return nil, err
		}
		report.ROWAADiverged = !audit.OK()
		c.Close()
	}

	// Quorum: the minority side cannot commit; after healing, version
	// voting serves the majority's value everywhere.
	{
		ccfg := cfg.Config
		ccfg.Policy = policy.Quorum{}
		c, err := cluster.New(ccfg)
		if err != nil {
			return nil, err
		}
		minority, majority, err := partitionDrive(c, cfg, txns)
		if err != nil {
			c.Close()
			return nil, err
		}
		report.QuorumMinorityCommits = minority
		report.QuorumMajorityCommits = majority
		c.Partition([]core.SiteID{0}, []core.SiteID{1, 2}, false)
		res, err := c.Exec(0, []core.Op{core.Read(0)})
		if err != nil {
			c.Close()
			return nil, err
		}
		report.QuorumHealedReadFresh = res.Committed &&
			len(res.Reads) == 1 && bytes.Equal(res.Reads[0].Value, lastMajorityValue(txns))
		c.Close()
	}
	return report, nil
}

// partitionDrive cuts {0} | {1,2} and writes item 0 on both sides,
// returning the commit counts (minority side, majority side).
func partitionDrive(c *cluster.Cluster, cfg Config, txns int) (minority, majority int, err error) {
	c.Partition([]core.SiteID{0}, []core.SiteID{1, 2}, true)
	for i := 0; i < txns; i++ {
		// Minority side write.
		id := c.NextTxnID()
		res, err := c.ExecTxn(0, id, []core.Op{core.Write(0, minorityValue(i))})
		if err != nil {
			return 0, 0, err
		}
		if res.Committed {
			minority++
		}
		// Majority side write of the same item.
		id = c.NextTxnID()
		res, err = c.ExecTxn(1, id, []core.Op{core.Write(0, majorityValue(i))})
		if err != nil {
			return 0, 0, err
		}
		if res.Committed {
			majority++
		}
	}
	return minority, majority, nil
}

func minorityValue(i int) []byte { return []byte(fmt.Sprintf("minority-%d", i)) }
func majorityValue(i int) []byte { return []byte(fmt.Sprintf("majority-%d", i)) }

// lastMajorityValue is the value the majority side wrote last.
func lastMajorityValue(txns int) []byte { return majorityValue(txns - 1) }
