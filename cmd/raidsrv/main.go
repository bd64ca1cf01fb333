// Command raidsrv runs one mini-RAID database site as its own OS process,
// talking real TCP to its peers — the deployment shape of the original
// RAID prototype before it was stripped down to one process per site on a
// single machine.
//
//	raidsrv -id 0 -addrs "0=:7000,1=:7001,m=:7009" -items 50
//	raidsrv -id 1 -config cluster.json
//
// Every process must receive the same configuration: either the same flag
// values or, better, the same -config JSON file (one deploy.ClusterSpec —
// the artifact the process fabric writes and raidctl reads too). Numeric
// address-map keys are site IDs, "m" is the managing site.
//
// -down boots the site in the failed state after WAL replay: the shape of
// a crash restart. The process loads whatever the log holds, resumes its
// persisted session number, and waits deaf for the managing site's
// recovery order, which runs the ordinary type-1 rejoin.
//
// The process exits when the managing site sends a Shutdown, or on
// SIGINT/SIGTERM.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"minraid/internal/core"
	"minraid/internal/deploy"
	"minraid/internal/site"
	"minraid/internal/storage"
	"minraid/internal/transport"
)

func main() {
	spec := deploy.BindFlags(flag.CommandLine)
	var (
		id       = flag.Int("id", 0, "this site's id")
		confPath = flag.String("config", "", "load the cluster spec from a JSON file (overrides the spec flags)")
		down     = flag.Bool("down", false, "boot in the failed state (crash restart); rejoin via the managing site's recover order")
	)
	flag.Parse()

	if *confPath != "" {
		loaded, err := deploy.LoadSpec(*confPath)
		if err != nil {
			fatal(err)
		}
		spec = loaded
	}
	ccfg, err := spec.Config()
	if err != nil {
		fatal(err)
	}
	if *id < 0 || *id >= ccfg.Sites {
		fatal(fmt.Errorf("site id %d out of range 0..%d", *id, ccfg.Sites-1))
	}
	self := core.SiteID(*id)
	cfg, err := ccfg.SiteConfig(self)
	if err != nil {
		fatal(err)
	}

	addrMap, _, _ := spec.AddrMap() // Config parsed it already
	net, err := transport.NewTCP(transport.TCPConfig{Self: self, Addrs: addrMap})
	if err != nil {
		fatal(err)
	}
	defer net.Close()

	if walDir := spec.WALDir(self); walDir != "" {
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			fatal(err)
		}
		store, err := storage.OpenWAL(storage.WALOptions{Dir: walDir, Items: spec.Items})
		if err != nil {
			fatal(err)
		}
		defer store.Close()
		cfg.Store = store
		// Crash-restart state: resume the persisted session so the rejoin
		// announcement is newer than any stale failure report about the
		// previous incarnation, and persist each bump before announcing.
		session, err := deploy.LoadSession(walDir)
		if err != nil {
			fatal(err)
		}
		cfg.Session = session
		cfg.PersistSession = func(n core.SessionNum) error {
			return deploy.SaveSession(walDir, n)
		}
	} else if *down {
		fatal(fmt.Errorf("-down requires a WAL store (-wal): a crash restart without durable state cannot rejoin"))
	}
	cfg.StartDown = *down

	s, err := site.New(cfg, net)
	if err != nil {
		fatal(err)
	}
	s.Start()
	state := "up"
	if *down {
		state = "down (awaiting recovery order)"
	}
	fmt.Printf("raidsrv: %s listening on %s (%d sites, %d items, policy %s, %s)\n",
		self, net.Addr(), cfg.Sites, cfg.Items, cfg.Policy.Name(), state)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		s.Wait() // returns after a Shutdown message stops the site
		close(done)
	}()
	select {
	case <-sig:
		fmt.Println("raidsrv: signal received, stopping")
		s.Stop()
	case <-done:
		fmt.Println("raidsrv: shutdown ordered by managing site")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "raidsrv:", err)
	os.Exit(1)
}
