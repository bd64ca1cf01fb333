// Package cli holds the parsing and formatting helpers of the managing-site
// console, cmd/raidctl:
//
//	raidctl {-addrs MAP | -config FILE} [-local] [VERB ARGS...]
//
// one verb per invocation, or with no verb a REPL reading verbs from stdin;
// -local runs the spec's sites in-process instead of dialing raidsrv.
package cli

import (
	"fmt"
	"strconv"
	"strings"

	"minraid/internal/core"
	"minraid/internal/msg"
)

// ParseOp parses one operation token: "rN" reads item N, "wN=value" writes
// value to item N.
func ParseOp(tok string) (core.Op, error) {
	if len(tok) < 2 {
		return core.Op{}, fmt.Errorf("bad op %q (want rN or wN=value)", tok)
	}
	switch tok[0] {
	case 'r':
		n, err := strconv.Atoi(tok[1:])
		if err != nil || n < 0 {
			return core.Op{}, fmt.Errorf("bad read %q", tok)
		}
		return core.Read(core.ItemID(n)), nil
	case 'w':
		body := tok[1:]
		eq := strings.IndexByte(body, '=')
		if eq < 1 {
			return core.Op{}, fmt.Errorf("bad write %q (want wN=value)", tok)
		}
		n, err := strconv.Atoi(body[:eq])
		if err != nil || n < 0 {
			return core.Op{}, fmt.Errorf("bad write item %q", tok)
		}
		return core.Write(core.ItemID(n), []byte(body[eq+1:])), nil
	default:
		return core.Op{}, fmt.Errorf("bad op %q (want rN or wN=value)", tok)
	}
}

// ParseOps parses a sequence of operation tokens.
func ParseOps(toks []string) ([]core.Op, error) {
	ops := make([]core.Op, 0, len(toks))
	for _, tok := range toks {
		op, err := ParseOp(tok)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// ParseSite parses a site-id argument.
func ParseSite(arg string, sites int) (core.SiteID, error) {
	n, err := strconv.Atoi(arg)
	if err != nil || n < 0 || n >= sites {
		return 0, fmt.Errorf("bad site id %q (want 0..%d)", arg, sites-1)
	}
	return core.SiteID(n), nil
}

// FormatResult renders a transaction outcome as raidctl prints it.
func FormatResult(res *msg.TxnResult) string {
	var b strings.Builder
	if !res.Committed {
		fmt.Fprintf(&b, "txn %d ABORTED: %s (%.2f ms)", res.Txn, res.AbortReason,
			float64(res.ElapsedNanos)/1e6)
		return b.String()
	}
	fmt.Fprintf(&b, "txn %d committed in %.2f ms, %d copier(s)", res.Txn,
		float64(res.ElapsedNanos)/1e6, res.Copiers)
	for _, iv := range res.Reads {
		fmt.Fprintf(&b, "\n  read item %d = %q (v%d)", iv.Item, iv.Value, iv.Version)
	}
	return b.String()
}

// FormatVector renders the session-vector records of a status response.
func FormatVector(recs []core.SiteInfo) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, rec := range recs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%s/%d", i, rec.Status, rec.Session)
	}
	b.WriteByte(']')
	return b.String()
}
