package experiment

import (
	"fmt"
	"strings"

	"minraid/internal/cluster"
	"minraid/internal/core"
	"minraid/internal/policy"
	"minraid/internal/workload"
)

// MessageComplexityReport tabulates messages per committed transaction as
// the system grows — the quantity behind every time the paper reports,
// since "intersite communications were an important component of execution
// times" (§2.1, 9 ms per communication).
type MessageComplexityReport struct {
	TxnsPerCell int
	SiteCounts  []int
	// Rows[policy][i] is the mean messages per transaction at
	// SiteCounts[i] sites.
	Rows map[string][]float64
	// Order lists the policies in display order.
	Order []string
}

// String renders the table.
func (r MessageComplexityReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: messages per transaction vs system size (%d txns per cell)\n", r.TxnsPerCell)
	fmt.Fprintf(&b, "  %-8s", "policy")
	for _, n := range r.SiteCounts {
		fmt.Fprintf(&b, " %7d-site", n)
	}
	b.WriteByte('\n')
	for _, name := range r.Order {
		fmt.Fprintf(&b, "  %-8s", name)
		for _, v := range r.Rows[name] {
			fmt.Fprintf(&b, " %12.1f", v)
		}
		b.WriteByte('\n')
	}
	b.WriteString("  (paper hardware: each message costs ~9 ms of the reported times)\n")
	return b.String()
}

// RunMessageComplexity measures mean messages per transaction for each
// policy at several system sizes, on a healthy system.
func RunMessageComplexity(cfg Config, siteCounts []int, txns int) (*MessageComplexityReport, error) {
	cfg = cfg.withDefaults(4, 50, 10)
	if len(siteCounts) == 0 {
		siteCounts = []int{2, 3, 4, 6, 8}
	}
	if txns == 0 {
		txns = 100
	}
	report := &MessageComplexityReport{
		TxnsPerCell: txns,
		SiteCounts:  siteCounts,
		Rows:        make(map[string][]float64),
		Order:       []string{"rowaa", "rowa", "quorum"},
	}
	for _, polName := range report.Order {
		pol, _ := policy.ByName(polName)
		for _, n := range siteCounts {
			ccfg := cfg.Config
			ccfg.Sites = n
			ccfg.Policy = pol
			c, err := cluster.New(ccfg)
			if err != nil {
				return nil, err
			}
			gen := workload.NewUniform(cfg.Items, cfg.MaxOps, cfg.Seed)
			before := c.MessagesSent()
			for i := 0; i < txns; i++ {
				id := c.NextTxnID()
				out, err := c.ExecTxn(core.SiteID(i%n), id, gen.Next(id))
				if err != nil {
					c.Close()
					return nil, err
				}
				if !out.Committed {
					c.Close()
					return nil, fmt.Errorf("message complexity: unexpected abort: %s", out.AbortReason)
				}
			}
			perTxn := float64(c.MessagesSent()-before) / float64(txns)
			report.Rows[polName] = append(report.Rows[polName], perTxn)
			c.Close()
		}
	}
	return report, nil
}
