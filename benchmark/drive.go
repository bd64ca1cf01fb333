package main

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"minraid/internal/core"
)

// sample is one committed transaction as the client saw it.
type sample struct {
	end   time.Duration // reply time, from the phase's start
	lat   time.Duration // from issue (closed loop) or from due time (open loop)
	late  time.Duration // open loop: how long after its due time it was issued
	coord time.Duration // the coordinator's own measure of the transaction
	write bool          // the transaction had at least one write
}

// phase is the outcome of one stretch of load.
type phase struct {
	start     time.Time
	elapsed   time.Duration
	attempted int
	committed int
	samples   []sample
}

func (p phase) tps() float64 { return float64(p.committed) / p.elapsed.Seconds() }

// driver sends the workload's stream to one deployment and keeps the
// ledger the correctness gates check the final database against.
type driver struct {
	d      *deployment
	stream *Stream
	lanes  lanes        // which transactions of the stream were issued
	down   atomic.Int32 // site ordered to fail, -1 when none

	// acked[item] is, under concurrent processing, the number of
	// acknowledged committed writes to item (every commit raises the
	// item's version by one), and under serial processing the highest
	// acknowledged writing TxnID (the version is the TxnID).
	acked []atomic.Uint64

	mu     sync.Mutex
	aborts map[string]int
	errs   int
	first  error
}

func newDriver(d *deployment, stream *Stream) *driver {
	dr := &driver{d: d, stream: stream, acked: make([]atomic.Uint64, d.spec.Items), aborts: map[string]int{}}
	dr.down.Store(-1)
	return dr
}

// coordinator is seq mod sites, stepping over a site ordered to fail.
func (dr *driver) coordinator(seq uint64) core.SiteID {
	id := dr.stream.Coordinator(seq)
	if int32(id) == dr.down.Load() {
		id = core.SiteID((int(id) + 1) % dr.d.spec.Sites)
	}
	return id
}

// exec runs transaction seq to its reply. ok reports whether it
// committed; s then carries what the reply said about it. Aborts and
// errors go to the driver's tallies.
func (dr *driver) exec(seq uint64) (s sample, ok bool) {
	ops := dr.stream.Next(seq)
	res, err := dr.d.c.Exec(dr.coordinator(seq), ops)
	if err != nil {
		dr.mu.Lock()
		dr.errs++
		if dr.first == nil {
			dr.first = err
		}
		dr.mu.Unlock()
		return s, false
	}
	if !res.Committed {
		dr.mu.Lock()
		dr.aborts[res.AbortReason]++
		dr.mu.Unlock()
		return s, false
	}
	s.coord = time.Duration(res.ElapsedNanos)
	for _, o := range ops {
		if o.Kind != core.OpWrite {
			continue
		}
		s.write = true
		a := &dr.acked[o.Item]
		if dr.d.spec.Concurrent > 1 {
			a.Add(1)
			continue
		}
		for {
			cur := a.Load()
			if uint64(res.Txn) <= cur || a.CompareAndSwap(cur, uint64(res.Txn)) {
				break
			}
		}
	}
	return s, true
}

// closed is the closed loop over the driver's stream, one lane per client.
func (dr *driver) closed(clients, limit int, deadline time.Time) phase {
	return closedLoop(clients, limit, deadline, func(c int) (sample, bool) {
		return dr.exec(dr.lanes.next(c, clients))
	})
}

// open is the open loop over the driver's stream, one lane per worker.
func (dr *driver) open(workers int, rate float64, length time.Duration) phase {
	return openLoop(workers, rate, length, func(w int) (sample, bool) {
		return dr.exec(dr.lanes.next(w, workers))
	})
}

// closedLoop is the closed loop: each of clients goroutines issues its
// next transaction as soon as its previous one is answered. It stops
// after limit transactions (0: no limit) or at the deadline (zero: none),
// whichever comes first. issue runs one transaction for the client given
// and reports whether it committed and what the reply said about it.
func closedLoop(clients, limit int, deadline time.Time, issue func(client int) (sample, bool)) phase {
	var issued atomic.Int64
	per := make([][]sample, clients)
	attempted := make([]int, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if limit > 0 && issued.Add(1) > int64(limit) {
					return
				}
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				t0 := time.Now()
				s, ok := issue(c)
				attempted[c]++
				if ok {
					now := time.Now()
					s.end, s.lat = now.Sub(start), now.Sub(t0)
					per[c] = append(per[c], s)
				}
			}
		}(c)
	}
	wg.Wait()
	return merge(start, per, attempted)
}

// openLoop is the open loop: arrival i is due at start + i/rate whatever
// the system is doing. A fixed pool of workers claims arrivals in order;
// no goroutine is started per arrival. A worker that claims an arrival
// before it is due sleeps until then; one that claims it late — every
// worker was busy — issues it at once, so a backlog is caught up, and its
// latency runs from the due time, so the backlog shows as latency.
//
// A sleep in this sandbox overshoots by 0.6 ms at the median and 1.1 ms at
// p99, several times a LAN transaction's service time. That lateness is
// the generator's, not the system's: an arrival claimed early is timed
// from when its worker woke, and the overshoot is reported as lateness.
func openLoop(workers int, rate float64, length time.Duration, issue func(worker int) (sample, bool)) phase {
	interval := time.Duration(float64(time.Second) / rate)
	count := int64(length / interval)
	var next atomic.Int64
	per := make([][]sample, workers)
	attempted := make([]int, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= count {
					return
				}
				from := start.Add(time.Duration(i) * interval)
				var late time.Duration
				if wait := time.Until(from); wait > 0 {
					time.Sleep(wait)
					now := time.Now()
					late, from = now.Sub(from), now
				}
				s, ok := issue(w)
				attempted[w]++
				if ok {
					now := time.Now()
					s.end, s.lat, s.late = now.Sub(start), now.Sub(from), late
					per[w] = append(per[w], s)
				}
			}
		}(w)
	}
	wg.Wait()
	return merge(start, per, attempted)
}

func merge(start time.Time, per [][]sample, attempted []int) phase {
	p := phase{start: start, elapsed: time.Since(start)}
	for i := range per {
		p.attempted += attempted[i]
		p.committed += len(per[i])
		p.samples = append(p.samples, per[i]...)
	}
	return p
}

// windows cuts the phase into n equal stretches of time and returns the
// samples of each. Reporting a quartile over windows keeps one garbage
// collection or one noisy neighbour from deciding a run's number.
func (p phase) windows(n int) [][]sample {
	if n < 1 {
		n = 1
	}
	bounds := make([]time.Duration, n+1)
	for i := range bounds {
		bounds[i] = p.elapsed * time.Duration(i) / time.Duration(n)
	}
	return p.slices(bounds)
}

// slices cuts the phase at the given ascending offsets from its start and
// returns the samples that were answered in each of the len(bounds)-1
// stretches; a sample on the last bound belongs to the last stretch.
func (p phase) slices(bounds []time.Duration) [][]sample {
	out := make([][]sample, len(bounds)-1)
	for _, s := range p.samples {
		w := sort.Search(len(bounds), func(i int) bool { return bounds[i] > s.end }) - 1
		if w == len(out) && s.end == bounds[w] {
			w--
		}
		if w >= 0 && w < len(out) {
			out[w] = append(out[w], s)
		}
	}
	return out
}

// latencies returns, sorted and in milliseconds, the latencies of the
// samples keep accepts.
func latencies(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if keep(s) {
			out = append(out, float64(s.lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// verify checks the ledger against a dump of a surviving site: every
// acknowledged write is there at no less than its version, and every
// written copy holds a value some issued transaction wrote to that item.
func (dr *driver) verify(dump []core.ItemVersion) error {
	if len(dump) != dr.d.spec.Items {
		return fmt.Errorf("dump has %d items, want %d", len(dump), dr.d.spec.Items)
	}
	for i, iv := range dump {
		if int(iv.Item) != i {
			return fmt.Errorf("dump entry %d is item %d", i, iv.Item)
		}
		if want := dr.acked[i].Load(); uint64(iv.Version) < want {
			return fmt.Errorf("item %d: acknowledged up to version %d, copy is at %d", i, want, iv.Version)
		}
		if iv.Version == 0 {
			continue
		}
		seq, ok := WriterOf(iv.Value)
		if !ok || !dr.lanes.issued(seq) {
			return fmt.Errorf("item %d: value names transaction %d, which was never issued", i, seq)
		}
		found := false
		for _, o := range dr.stream.Next(seq) {
			if o.Kind == core.OpWrite && o.Item == iv.Item {
				found = bytes.Equal(o.Value, iv.Value)
			}
		}
		if !found {
			return fmt.Errorf("item %d: value is not what transaction %d wrote", i, seq)
		}
	}
	return nil
}
