// Command raidctl is the managing site: "to cause sites to fail and recover
// and to initiate a database transaction to a site" (§1.2). It drives the
// fleet one deploy.ClusterSpec describes — the same flags or -config file
// raidsrv loads and the process fabric writes — either raidsrv processes
// over TCP or, with -local, the spec's sites run in this process.
//
//	raidctl {-addrs MAP | -config FILE} [-local] [flags] [VERB ARGS...]
//
//	raidctl -addrs "0=:7000,1=:7001,m=:7009" status
//	raidctl -config cluster.json txn 0 w3=hello r3
//	raidctl -config cluster.json fail 1
//	raidctl -local -addrs "0-3=:7000-7003,m=:7009" -items 50
//
// With a verb raidctl runs it and exits non-zero if it fails: an error, an
// aborted transaction, a failed audit, or (status, stats, shutdown) any
// site unreachable. With no verb it reads verbs from stdin, one per line,
// printing errors and carrying on. The verbs are listed under help.
//
// Transaction IDs come from the manager's counter. Over TCP it starts at
// the wall clock, so versions stay monotone across invocations; with -local
// it starts at 0, so the third transaction is "trace 3". Over TCP, trace
// shows only the manager's inject span: the sites' events stay in their
// processes.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"minraid/internal/cli"
	"minraid/internal/cluster"
	"minraid/internal/core"
	"minraid/internal/deploy"
	"minraid/internal/msg"
	"minraid/internal/trace"
)

const help = `verbs:
  status               per-site state, session, fail-lock counts, session vector
  txn SITE OP...       run a transaction on SITE; ops: rN (read item N), wN=value;
                       reads see the state before the transaction, not its writes
  fail SITE            simulate failure of SITE
  recover SITE         recover SITE (control transaction type 1)
  audit                cross-site consistency audit
  stats                per-site protocol counters
  trace TXN            event timeline of one transaction
  shutdown             stop every site
  help, quit
`

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is raidctl with its process boundary passed in; it returns the exit
// status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raidctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := deploy.BindFlags(fs)
	var (
		confPath = fs.String("config", "", "load the cluster spec from a JSON file (overrides the spec flags)")
		timeout  = fs.Duration("timeout", 10*time.Second, "per-call timeout")
		local    = fs.Bool("local", false, "run the spec's sites in this process instead of dialing raidsrv processes")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *confPath != "" {
		loaded, err := deploy.LoadSpec(*confPath)
		if err != nil {
			fmt.Fprintln(stderr, "raidctl:", err)
			return 1
		}
		spec = loaded
	}
	mgr, closeMgr, err := open(spec, *local, *timeout)
	if err != nil {
		fmt.Fprintln(stderr, "raidctl:", err)
		return 1
	}
	defer closeMgr()

	c := &console{mgr: mgr, out: stdout}
	if fs.NArg() > 0 {
		if err := c.do(fs.Args()); err != nil {
			fmt.Fprintln(stderr, "raidctl:", err)
			return 1
		}
		return 0
	}
	sc := bufio.NewScanner(stdin)
	for fmt.Fprint(stdout, "> "); sc.Scan(); fmt.Fprint(stdout, "> ") {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) == 0:
		case f[0] == "quit" || f[0] == "exit":
			return 0
		default:
			if err := c.do(f); err != nil {
				fmt.Fprintln(stdout, "error:", err)
			}
		}
	}
	return 0
}

// open builds the managing site for spec: an in-process cluster with
// local, else a TCP manager for the raidsrv fleet whose transaction IDs
// start at the wall clock.
func open(spec *deploy.ClusterSpec, local bool, timeout time.Duration) (*cluster.Manager, func(), error) {
	if !local {
		return spec.DialManager(timeout, uint64(time.Now().UnixNano()))
	}
	cfg, err := spec.Config()
	if err != nil {
		return nil, nil, err
	}
	cfg.ManagerTimeout = timeout
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return c.Manager, c.Close, nil
}

// console runs verbs against a manager and renders their results.
type console struct {
	mgr *cluster.Manager
	out io.Writer
}

func (c *console) do(args []string) error {
	verb, args := args[0], args[1:]
	switch verb {
	case "status":
		return c.eachSite(func(id core.SiteID, st *msg.StatusResp) {
			fmt.Fprintf(c.out, "site %d: %-11s session %-3d fail-locks %v vector %s\n",
				id, st.State, st.Session, st.FailLockCounts, cli.FormatVector(st.Vector))
		})
	case "stats":
		return c.eachSite(func(id core.SiteID, st *msg.StatusResp) {
			s := st.Stats
			fmt.Fprintf(c.out, "site %d: committed=%d aborted=%d participated=%d copiers=%d served=%d flSet=%d flCleared=%d ctrl1=%d ctrl2=%d ctrl3=%d msgs=%d/%d\n",
				id, s.Committed, s.Aborted, s.Participated, s.CopiersRequested, s.CopiesServed,
				s.FailLocksSet, s.FailLocksCleared, s.ControlType1, s.ControlType2, s.ControlType3,
				s.MsgsIn, s.MsgsOut)
		})
	case "txn":
		if len(args) < 2 {
			return errors.New("usage: txn SITE OP... (ops: r3, w5=hello)")
		}
		coord, err := cli.ParseSite(args[0], c.mgr.Sites())
		if err != nil {
			return err
		}
		ops, err := cli.ParseOps(args[1:])
		if err != nil {
			return err
		}
		res, err := c.mgr.Exec(coord, ops)
		if err != nil {
			return err
		}
		if !res.Committed {
			return errors.New(cli.FormatResult(res))
		}
		fmt.Fprintln(c.out, cli.FormatResult(res))
	case "fail":
		id, err := c.site(args)
		if err != nil {
			return err
		}
		if err := c.mgr.Fail(id); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "%s is down\n", id)
	case "recover":
		id, err := c.site(args)
		if err != nil {
			return err
		}
		st, err := c.mgr.Recover(id)
		if errors.Is(err, cluster.ErrRecoveryBlocked) && st != nil {
			return fmt.Errorf("recovery blocked: %s is %s", id, st.State)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(c.out, "%s is up (session %d)\n", id, st.Session)
	case "audit":
		report, err := c.mgr.Audit()
		if err != nil {
			return err
		}
		if !report.OK() {
			return errors.New(report.String())
		}
		fmt.Fprintln(c.out, report)
	case "trace":
		if len(args) != 1 {
			return errors.New("usage: trace TXN")
		}
		n, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil {
			return fmt.Errorf("bad transaction id %q", args[0])
		}
		fmt.Fprint(c.out, c.mgr.Tracer().Span(trace.ID(n)).Timeline())
	case "shutdown":
		var failed int
		for i := 0; i < c.mgr.Sites(); i++ {
			if err := c.mgr.Shutdown(core.SiteID(i)); err != nil {
				fmt.Fprintf(c.out, "site %d: %v\n", i, err)
				failed++
				continue
			}
			fmt.Fprintf(c.out, "site %d: shutting down\n", i)
		}
		if failed > 0 {
			return fmt.Errorf("%d of %d site(s) did not acknowledge shutdown", failed, c.mgr.Sites())
		}
	case "help":
		fmt.Fprint(c.out, help)
	default:
		return fmt.Errorf("unknown verb %q (try help)", verb)
	}
	return nil
}

// site parses the single site-id argument of fail and recover.
func (c *console) site(args []string) (core.SiteID, error) {
	if len(args) != 1 {
		return 0, errors.New("expected one site id")
	}
	return cli.ParseSite(args[0], c.mgr.Sites())
}

// eachSite prints every site's status through show, or an unreachable line,
// and fails if any site was unreachable — so a script can poll readiness
// with `until raidctl ... status; do sleep 0.2; done`.
func (c *console) eachSite(show func(core.SiteID, *msg.StatusResp)) error {
	var down int
	for i := 0; i < c.mgr.Sites(); i++ {
		id := core.SiteID(i)
		st, err := c.mgr.Status(id, false)
		if err != nil {
			fmt.Fprintf(c.out, "site %d: unreachable (%v)\n", i, err)
			down++
			continue
		}
		show(id, st)
	}
	if down > 0 {
		return fmt.Errorf("%d of %d site(s) unreachable", down, c.mgr.Sites())
	}
	return nil
}
