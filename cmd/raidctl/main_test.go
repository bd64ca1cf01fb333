package main

import (
	"bytes"
	"strings"
	"testing"

	"minraid/internal/deploy"
)

// localFlags runs four in-process sites with a short failure-detection
// timeout, so the detection abort after a fail costs 50 ms.
var localFlags = []string{"-local", "-addrs", "0-3=h:7000-7003,m=h:7009", "-items", "10", "-ack-timeout", "50ms"}

// repl feeds lines to raidctl with no verb and returns what it printed.
func repl(t *testing.T, args []string, lines ...string) string {
	t.Helper()
	var out, errOut bytes.Buffer
	in := strings.NewReader(strings.Join(lines, "\n") + "\n")
	if code := run(args, in, &out, &errOut); code != 0 {
		t.Fatalf("exit %d; stderr: %s\nstdout: %s", code, errOut.String(), out.String())
	}
	return out.String()
}

// wantInOrder fails unless every fragment appears in out, each after the
// one before it.
func wantInOrder(t *testing.T, out string, fragments ...string) {
	t.Helper()
	rest := out
	for _, f := range fragments {
		i := strings.Index(rest, f)
		if i < 0 {
			t.Fatalf("missing %q (in order) in:\n%s", f, out)
		}
		rest = rest[i+len(f):]
	}
}

// TestREPLFailRecoverCopierFlow drives the managing site's story: a write
// while site 1 is down fail-locks its copy, and the first read of that item
// on the recovered site runs a copier, visible in the transaction's trace.
func TestREPLFailRecoverCopierFlow(t *testing.T) {
	out := repl(t, localFlags,
		"fail 1",
		"txn 0 w2=x", // the detection abort: the first write after a failure
		"txn 0 w2=y",
		"recover 1",
		"txn 1 r2 w3=z",
		"trace 3",
		"audit",
		"quit",
		"status", // after quit: must not run
	)
	wantInOrder(t, out,
		"site 1 is down",
		"error: txn 1 ABORTED",
		"txn 2 committed",
		"site 1 is up (session 2)",
		"txn 3 committed", "1 copier(s)", `read item 2 = "y"`,
		"trace 3:", "copier", "clear.flock",
		"audit OK",
	)
	if strings.Contains(out, "site 0: up") {
		t.Errorf("a line after quit ran:\n%s", out)
	}
}

// TestREPLBadLinesContinue: a malformed line prints an error and the REPL
// goes on to the next one.
func TestREPLBadLinesContinue(t *testing.T) {
	out := repl(t, localFlags,
		"bogus",
		"txn 0 w1=a",
		"fail 9",
		"txn 0 w1=b",
		"txn 0 w5",
		"txn 0 w1=c",
	)
	wantInOrder(t, out,
		`error: unknown verb "bogus"`, "txn 1 committed",
		`error: bad site id "9" (want 0..3)`, "txn 2 committed",
		`error: bad write "w5"`, "txn 3 committed",
	)
}

// TestOneShotExitStatus: with a verb, raidctl exits non-zero on any failure
// a script must see — including a status with a site unreachable, so
// readiness can be polled with `until raidctl ... status`.
func TestOneShotExitStatus(t *testing.T) {
	addrs, err := deploy.FreeLoopbackAddrs(2) // nothing listens on these
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		want int
	}{
		{append(localFlags[:len(localFlags):len(localFlags)], "status"), 0},
		{append(localFlags[:len(localFlags):len(localFlags)], "txn", "0", "w1=a", "r1"), 0},
		{append(localFlags[:len(localFlags):len(localFlags)], "txn", "0", "w5"), 1},
		{append(localFlags[:len(localFlags):len(localFlags)], "bogus"), 1},
		{[]string{"-local", "-addrs", "0=h:1,m=h:9", "-wal", "/data", "status"}, 1},
		{[]string{"-addrs", addrs, "-timeout", "200ms", "status"}, 1},
	}
	for _, c := range cases {
		var out, errOut bytes.Buffer
		if got := run(c.args, strings.NewReader(""), &out, &errOut); got != c.want {
			t.Errorf("%v: exit %d, want %d\nstdout: %s\nstderr: %s", c.args, got, c.want, out.String(), errOut.String())
		}
	}
}
