// Netcluster: the same ROWAA protocol over real TCP sockets — three sites
// and the managing site on loopback ports, exchanging CRC-framed messages,
// through a write, a failure, a recovery and an audit. This is the
// single-binary version of the cmd/raidsrv + cmd/raidctl deployment.
//
//	go run ./examples/netcluster
package main

import (
	"fmt"
	"log"

	"minraid/internal/cluster"
	"minraid/internal/core"
	"minraid/internal/msg"
)

func main() {
	c, err := cluster.New(cluster.Config{Sites: 3, Items: 30, Transport: "tcp"})
	must(err)
	defer c.Close()

	exec := func(coord core.SiteID, ops ...core.Op) *msg.TxnResult {
		res, err := c.Exec(coord, ops)
		must(err)
		return res
	}

	// Replicate a write over real sockets, read it back elsewhere.
	res := exec(0, core.Write(5, []byte("over tcp")))
	fmt.Printf("txn %d: committed=%v in %.2fms\n", res.Txn, res.Committed, float64(res.ElapsedNanos)/1e6)
	res = exec(2, core.Read(5))
	fmt.Printf("txn %d read via site 2: %q\n", res.Txn, res.Reads[0].Value)

	// Fail site 1, detect, keep going, recover.
	must(c.Fail(1))
	res = exec(0, core.Write(6, []byte("detect")))
	fmt.Printf("txn %d (detection): committed=%v reason=%q\n", res.Txn, res.Committed, res.AbortReason)
	res = exec(0, core.Write(6, []byte("while down")))
	fmt.Printf("txn %d: committed=%v with site 1 down\n", res.Txn, res.Committed)

	st, err := c.Recover(1)
	must(err)
	fmt.Printf("site 1 recovered: state=%s session=%d\n", st.State, st.Session)

	res = exec(1, core.Read(6))
	fmt.Printf("txn %d read on recovered site: %q (%d copier)\n", res.Txn, res.Reads[0].Value, res.Copiers)

	// Audit over the sockets.
	report, err := c.Audit()
	must(err)
	fmt.Println(report)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
