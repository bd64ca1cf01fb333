package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"minraid/internal/core"
	"minraid/internal/storage"
)

// plan says how one measured run spends its time.
type plan struct {
	// setups is how many times the deployment is built and warmed up; the
	// last one is measured, the others only timed and torn down.
	setups int
	// closed, single and open are the lengths of the traffic phases: the
	// closed loop at the workload's client count, a closed loop with one
	// client, and the open loop at the frozen rate. cycles is the time
	// given to fail/recover cycles; at least one always runs.
	closed, single, open, cycles time.Duration
	// probe, when non-nil, is installed around every site's store.
	probe *storeProbe
}

// counters are monotonic totals read at the boundaries of a stretch of
// load; the difference of two readings is what the stretch cost.
type counters struct {
	cpu      time.Duration // process user+system CPU
	msgs     uint64        // messages accepted by the memory transport
	alloc    uint64        // bytes allocated (runtime.MemStats.TotalAlloc)
	gcPause  time.Duration // total stop-the-world pause
	walBytes int64
	// applies and gets are the store probe's call counts (traced run).
	applies, gets int64
}

// plus returns c + (to - from).
func (c counters) plus(from, to counters) counters {
	c.cpu += to.cpu - from.cpu
	c.msgs += to.msgs - from.msgs
	c.alloc += to.alloc - from.alloc
	c.gcPause += to.gcPause - from.gcPause
	c.walBytes += to.walBytes - from.walBytes
	c.applies += to.applies - from.applies
	c.gets += to.gets - from.gets
	return c
}

// costOf runs load and returns what it cost.
func (d *deployment) costOf(probe *storeProbe, load func() phase) (phase, counters, error) {
	from, err := d.counters(probe)
	if err != nil {
		return phase{}, counters{}, err
	}
	p := load()
	to, err := d.counters(probe)
	return p, counters{}.plus(from, to), err
}

// processCPU is the user and system CPU time the process has used.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// cpuMark is a reading of the process's CPU time.
type cpuMark struct {
	at  time.Time
	cpu time.Duration
}

// windowWidth is the length of the windows a traffic phase is cut into.
const windowWidth = 500 * time.Millisecond

// sampleCPU reads the process's CPU time when load starts, every
// windowWidth while it runs and when it ends, so that CPU per transaction
// can be taken window by window like the rates and latencies.
func sampleCPU(load func()) ([]cpuMark, error) {
	var marks []cpuMark
	var failed error
	mark := func() {
		cpu, err := processCPU()
		if err != nil {
			failed = err
		}
		marks = append(marks, cpuMark{at: time.Now(), cpu: cpu})
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	mark()
	go func() {
		defer wg.Done()
		tick := time.NewTicker(windowWidth)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				mark()
			case <-done:
				return
			}
		}
	}()
	load()
	close(done)
	wg.Wait()
	mark()
	return marks, failed
}

func (d *deployment) counters(probe *storeProbe) (counters, error) {
	cpu, err := processCPU()
	if err != nil {
		return counters{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	wal, err := d.walBytes()
	var applies, gets int64
	if probe != nil {
		probe.mu.Lock()
		applies, gets = int64(len(probe.applyNs)), probe.gets
		probe.mu.Unlock()
	}
	return counters{
		applies:  applies,
		gets:     gets,
		cpu:      cpu,
		msgs:     d.c.MessagesSent(),
		alloc:    ms.TotalAlloc,
		gcPause:  time.Duration(ms.PauseTotalNs),
		walBytes: wal,
	}, err
}

// outcome is everything one measured run produced.
type outcome struct {
	spec   Spec
	setups []float64 // seconds, one per build + warm-up

	closed, single, open phase
	// closedMarks are the CPU readings taken through the closed phase.
	closedMarks []cpuMark
	cycles      []cycle
	// cost is what the stretch committed_tps and cpu_us_per_txn come from
	// cost — the closed phase, or the steady segments of a workload that
	// has no traffic phases — and costed what committed there. singleCost
	// and singleCosted are the same for the single-client phase.
	cost, singleCost     counters
	costed, singleCosted int

	// sum is what the samples and cycles came to; they are dropped once
	// it is computed.
	sum summary

	settled, audit time.Duration
	// gates is how long the final checks and the tear-down took.
	gates       time.Duration
	liveHeapMB  float64
	compactions int

	attempted, failed int
	// cycleCommitted is what committed inside the cycles.
	cycleCommitted int
	// trafficUnclean says why the cluster needed repair after the traffic
	// phases ("" when it did not).
	trafficUnclean string
	aborts         map[string]int
	outageAborts   int
	errs           int
	// timers are the sites' own timers, merged over sites, as they stood
	// at the end of the run (the registries are reset after warm-up).
	timers map[string]timerTotal
}

type timerTotal struct {
	count uint64
	total time.Duration
}

func (t timerTotal) meanUs() float64 {
	if t.count == 0 {
		return 0
	}
	return float64(t.total) / float64(t.count) / float64(time.Microsecond)
}

// maxCycleTries bounds the fail/recover cycles run in search of a clean
// one after their time is up.
const maxCycleTries = 8

// measure sets the workload up, drives it through the plan, checks the
// correctness gates and tears it down. dataDir is where WAL files go.
func measure(spec Spec, seed uint64, pl plan, dataDir string) (*outcome, error) {
	out := &outcome{spec: spec}
	stream := spec.stream(seed)

	var d *deployment
	var dr *driver
	for i := 0; i < pl.setups; i++ {
		t0 := time.Now()
		var err error
		d, err = deploy(spec, seed, filepath.Join(dataDir, fmt.Sprintf("setup%d", i)), pl.probe)
		if err != nil {
			return nil, err
		}
		dr = newDriver(d, stream)
		dr.closed(spec.Clients, spec.Warmup, time.Time{})
		out.setups = append(out.setups, time.Since(t0).Seconds())
		if dr.errs > 0 {
			d.close()
			return nil, fmt.Errorf("warm-up: %w", dr.first)
		}
		if i < pl.setups-1 {
			if err := d.close(); err != nil {
				return nil, err
			}
			if err := d.remove(); err != nil {
				return nil, err
			}
		}
	}
	defer d.remove()
	closed := false
	defer func() {
		if !closed {
			d.close()
		}
	}()

	// Warm-up is over: the tallies, the sites' timers and the store probe
	// start from zero, so they cover the measured phases only.
	warmupAborts := dr.abortTotal()
	dr.aborts = map[string]int{}
	for i := 0; i < spec.Sites; i++ {
		d.c.Registry(core.SiteID(i)).Reset()
	}
	if pl.probe != nil {
		pl.probe.reset()
	}
	if warmupAborts > 0 {
		fmt.Fprintf(os.Stderr, "note: %d aborts during warm-up\n", warmupAborts)
	}

	var err error
	if pl.closed > 0 {
		var markErr error
		out.closed, out.cost, err = d.costOf(pl.probe, func() (p phase) {
			out.closedMarks, markErr = sampleCPU(func() { p = dr.closed(spec.Clients, 0, time.Now().Add(pl.closed)) })
			return p
		})
		if err == nil {
			err = markErr
		}
		if err != nil {
			return nil, err
		}
		out.costed = out.closed.committed
	}
	if pl.single > 0 {
		out.single, out.singleCost, err = d.costOf(pl.probe, func() phase {
			return dr.closed(1, 0, time.Now().Add(pl.single))
		})
		if err != nil {
			return nil, err
		}
		out.singleCosted = out.single.committed
	}
	if pl.open > 0 {
		out.open = dr.open(workersPerClient*spec.Clients, spec.OpenRate, pl.open)
	}
	// Quiescence is reached by polling, never by a fixed sleep: under
	// epoch commit the audit stays dirty for about two round trips after
	// the last reply.
	if out.settled, out.audit, err = d.settle(2 * time.Second); err != nil {
		// No failure was ordered, so a site suspected another wrongly: a
		// stall outlasted the ack timeout. That is lost availability, not
		// a wrong answer: it counts as a failure, is repaired, and the
		// final gates still have to pass.
		out.trafficUnclean = err.Error()
		if err := dr.repair("after the traffic phases: " + out.trafficUnclean); err != nil {
			return nil, err
		}
	}
	// Cycles run until their time is up and at least one of them was
	// clean (their quartiles come from the clean ones), within reason.
	cyclesStart := time.Now()
	clean := 0
	for i := 0; time.Since(cyclesStart) < pl.cycles || clean == 0 && i < maxCycleTries; i++ {
		cy, err := dr.cycle(spec.Clients, pl.probe)
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", i, err)
		}
		if cy.unclean == "" {
			clean++
		}
		out.cycles = append(out.cycles, cy)
		if pl.closed == 0 {
			out.cost = out.cost.plus(counters{}, cy.steadyCost)
			out.costed += cy.steady.committed
		}
	}
	if pl.single == 0 {
		out.singleCost, out.singleCosted = out.cost, out.costed
	}

	// Gates.
	gatesStart := time.Now()
	defer func() { out.gates = time.Since(gatesStart) }()
	if _, _, err = d.settle(10 * time.Second); err != nil {
		return nil, fmt.Errorf("after the cycles: %w", err)
	}
	dumps := make([][]core.ItemVersion, spec.Sites)
	for i := range dumps {
		if dumps[i], err = d.c.Dump(core.SiteID(i)); err != nil {
			return nil, err
		}
	}
	if err := dr.verify(dumps[0]); err != nil {
		return nil, fmt.Errorf("acknowledged writes: %w", err)
	}

	out.tally(dr)
	out.timers = map[string]timerTotal{}
	for i := 0; i < spec.Sites; i++ {
		for name, st := range d.c.Registry(core.SiteID(i)).Timers() {
			t := out.timers[name]
			t.count += st.Count
			t.total += st.Total
			out.timers[name] = t
		}
	}
	out.compactions = d.snapshots()

	// Live heap: what the program still holds once the run's own
	// samples are summarised and dropped and a collection has been forced.
	out.sum = out.summarize()
	out.closed.samples, out.single.samples, out.open.samples, out.cycles, out.closedMarks = nil, nil, nil, nil, nil
	var closeHashes []uint64
	if spec.WAL {
		for _, dump := range dumps {
			closeHashes = append(closeHashes, dumpHash(dump))
		}
	}
	dumps = nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.liveHeapMB = float64(ms.HeapAlloc) / (1 << 20)

	closed = true
	if err := d.close(); err != nil {
		return nil, err
	}
	// Durability: a reopened log must replay to exactly what the site
	// held when it was closed.
	for i, want := range closeHashes {
		w, err := storage.OpenWAL(d.walOptions(core.SiteID(i)))
		if err != nil {
			return nil, fmt.Errorf("reopening site %d: %w", i, err)
		}
		replayed, err := w.Dump(0, core.ItemID(spec.Items-1))
		w.Close()
		if err != nil {
			return nil, err
		}
		if dumpHash(replayed) != want {
			return nil, fmt.Errorf("site %d: replayed log differs from the copy held at close", i)
		}
	}
	return out, nil
}

// dumpHash is the FNV-1a hash of a dump's items, versions and values.
func dumpHash(dump []core.ItemVersion) uint64 {
	h := fnv.New64a()
	var b [12]byte
	for _, iv := range dump {
		binary.LittleEndian.PutUint32(b[:], uint32(iv.Item))
		binary.LittleEndian.PutUint64(b[4:], uint64(iv.Version))
		h.Write(b[:])
		h.Write(iv.Value)
	}
	return h.Sum64()
}

// tally fills attempted and failed. An abort inside an outage window is
// the outage itself and is reported as outage_p50_ms; every other abort,
// every error and every cycle that needed repair is a failure.
func (o *outcome) tally(dr *driver) {
	o.aborts = dr.aborts
	o.errs = dr.errs
	o.attempted = o.closed.attempted + o.single.attempted + o.open.attempted
	unclean := 0
	for _, cy := range o.cycles {
		o.attempted += cy.steady.attempted + cy.degraded.attempted + cy.outageAborts + 1
		o.outageAborts += cy.outageAborts
		o.cycleCommitted += cy.steady.committed + cy.degraded.committed + 1
		if cy.unclean != "" {
			unclean++
		}
	}
	if o.trafficUnclean != "" {
		unclean++
	}
	o.failed = dr.abortTotal() - o.outageAborts + dr.errs + unclean
}
