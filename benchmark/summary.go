package main

import (
	"sort"
	"time"
)

// minWindowSamples is how many samples a window needs for its p99 to have
// ten samples beyond it.
const minWindowSamples = 1100

// summary is what a run's samples and cycles come to. Every number is the
// better quartile (see Better) over windows of the run — half-second
// stretches of a traffic phase, or the fail/recover cycles — so that a
// collection pause, a slow disk flush or a neighbour on the host moves the
// windows it hits, not the run's result.
type summary struct {
	// tps is committed transactions per second and cpuUs the process CPU
	// per committed transaction, over the windows of the closed phase or
	// the steady segments of the cycles. windowSpread is the distance
	// between the quartiles of those windows' rates as a share of their
	// median: how uneven the run was.
	tps, cpuUs, windowSpread float64
	// Latencies in ms of committed transactions. The medians come from
	// the open phase, timed from each arrival's due time; p99 comes from
	// the closed phase, a service time at the workload's client count
	// (see README.md for why the tail is not taken at the fixed rate).
	// A workload that is cycles only takes all four from its steady
	// segments (service times). openP99 is the open phase's own p99.
	p50, p99, readP50, writeP50, openP99 float64
	// tailQ is the percentile p99 actually is: 0.99 unless a window was
	// too small to have ten samples beyond it. latSamples and tailSamples
	// count the samples the medians and the p99 rest on.
	tailQ                   float64
	latSamples, tailSamples int

	// singleP50Us is the single-client phase's median latency; overheadUs
	// is, over the closed phase (or the steady segments), the mean of the
	// client's latency minus the time the coordinator reported for the
	// same transaction.
	singleP50Us, overheadUs float64
	// writeShare is the share of the single-client phase's (or the steady
	// segments') committed transactions that had writes.
	writeShare float64

	// lateP99Ms is the p99 of how late the open loop issued its arrivals,
	// lateFrac the share issued more than a millisecond late.
	lateP99Ms, lateFrac float64

	outageMs, degradedTps, recoverMs, healItemsPerS float64
	copiersPerRecovery                              float64
	cycles, unclean                                 int
	uncleanWhy                                      []string
}

// tail returns the q-quantile of sorted, falling back to the highest
// percentile the sample supports when q has fewer than minBeyond samples
// beyond it, and says which percentile that was.
func tail(sorted []float64, q float64) (float64, float64) {
	if v, err := Percentile(sorted, q); err == nil {
		return v, q
	}
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n <= 2*minBeyond {
		return sorted[(n-1)/2], 0.5
	}
	return sorted[n-minBeyond-1], float64(n-minBeyond) / float64(n)
}

// latencySummary fills the four latencies from a set of windows: each is
// the better quartile, over the windows, of the window's own percentile.
func (s *summary) latencySummary(windows [][]sample) {
	var p50s, p99s, reads, writes []float64
	s.tailQ = 0.99
	for _, w := range windows {
		all := latencies(w, func(sample) bool { return true })
		if len(all) == 0 {
			continue
		}
		s.latSamples += len(all)
		p50s = append(p50s, rank(all, 0.5))
		v, q := tail(all, 0.99)
		p99s = append(p99s, v)
		if q < s.tailQ {
			s.tailQ = q
		}
		if r := latencies(w, func(x sample) bool { return !x.write }); len(r) > 0 {
			reads = append(reads, rank(r, 0.5))
		}
		if wr := latencies(w, func(x sample) bool { return x.write }); len(wr) > 0 {
			writes = append(writes, rank(wr, 0.5))
		}
	}
	s.p50, s.p99, s.readP50, s.writeP50 = Better(p50s, false), Better(p99s, false), Better(reads, false), Better(writes, false)
}

// windowCount is how many windows a phase that could be cut into n is cut
// into: fewer than n when that would leave a window under
// minWindowSamples, and at least one.
func windowCount(p phase, n int) int {
	if most := p.committed / minWindowSamples; most < n {
		n = most
	}
	if n < 1 {
		n = 1
	}
	return n
}

// spread is the distance between the quartiles of xs as a share of their
// median.
func spread(xs []float64) float64 {
	if m := Median(xs); m > 0 {
		return (Better(xs, true) - Better(xs, false)) / m
	}
	return 0
}

// closedSummary fills tps, cpuUs, p99 and what goes with them from the
// closed phase, cut where its CPU readings were taken.
func (s *summary) closedSummary(p phase, marks []cpuMark) {
	// The last reading closes a stretch shorter than the others; unless
	// it is the only one it is left out. Readings are then thinned until
	// the windows between them are large enough to carry a p99.
	if len(marks) > 2 {
		marks = marks[:len(marks)-1]
	}
	n := len(marks) - 1
	w := windowCount(p, n)
	var kept []cpuMark
	for i := 0; i <= w; i++ {
		kept = append(kept, marks[i*(n/w)])
	}
	bounds := make([]time.Duration, len(kept))
	for i, m := range kept {
		bounds[i] = m.at.Sub(p.start)
	}
	wins := p.slices(bounds)
	var rates, cpus []float64
	for i, w := range wins {
		if len(w) == 0 {
			continue
		}
		rates = append(rates, float64(len(w))/kept[i+1].at.Sub(kept[i].at).Seconds())
		cpus = append(cpus, float64(kept[i+1].cpu-kept[i].cpu)/float64(time.Microsecond)/float64(len(w)))
	}
	s.tps, s.cpuUs, s.windowSpread = Better(rates, true), Better(cpus, false), spread(rates)
	s.overheadUs = overheadUs(p.samples)
	var closed summary
	closed.latencySummary(wins)
	s.p99, s.tailQ, s.tailSamples = closed.p99, closed.tailQ, closed.latSamples
}

func (o *outcome) summarize() summary {
	var s summary
	if o.closed.elapsed > 0 {
		s.closedSummary(o.closed, o.closedMarks)
	}
	if o.open.elapsed > 0 {
		var open summary
		open.latencySummary(o.open.windows(windowCount(o.open, int(o.open.elapsed/windowWidth))))
		s.p50, s.readP50, s.writeP50, s.latSamples = open.p50, open.readP50, open.writeP50, open.latSamples
		s.openP99 = open.p99
		var late []float64
		over := 0
		for _, x := range o.open.samples {
			late = append(late, float64(x.late)/float64(time.Millisecond))
			if x.late > time.Millisecond {
				over++
			}
		}
		sort.Float64s(late)
		s.lateP99Ms, _ = tail(late, 0.99)
		if len(late) > 0 {
			s.lateFrac = float64(over) / float64(len(late))
		}
	}
	if o.single.elapsed > 0 {
		all := latencies(o.single.samples, func(sample) bool { return true })
		if len(all) > 0 {
			s.singleP50Us = rank(all, 0.5) * 1000
		}
		s.writeShare = writeShare(o.single.samples)
	}

	var steadyTps, steadyCPU, outage, degraded, recover, heal, copiers []float64
	var steady [][]sample
	for _, cy := range o.cycles {
		s.cycles++
		if cy.unclean != "" {
			// A repaired cycle's timings describe the repair, not the
			// protocol, and are left out.
			s.unclean++
			s.uncleanWhy = append(s.uncleanWhy, cy.unclean)
			continue
		}
		if cy.steady.committed > 0 {
			steadyTps = append(steadyTps, cy.steady.tps())
			steadyCPU = append(steadyCPU, float64(cy.steadyCost.cpu)/float64(time.Microsecond)/float64(cy.steady.committed))
			steady = append(steady, cy.steady.samples)
		}
		outage = append(outage, float64(cy.outage)/float64(time.Millisecond))
		degraded = append(degraded, cy.degraded.tps())
		recover = append(recover, float64(cy.recover)/float64(time.Millisecond))
		if cy.drain > 0 {
			heal = append(heal, float64(cy.locked)/cy.drain.Seconds())
		}
		copiers = append(copiers, float64(cy.copiers))
	}
	s.outageMs, s.recoverMs = Better(outage, false), Better(recover, false)
	s.degradedTps, s.healItemsPerS = Better(degraded, true), Better(heal, true)
	s.copiersPerRecovery = Median(copiers)
	if o.closed.elapsed == 0 {
		s.tps, s.cpuUs, s.windowSpread = Better(steadyTps, true), Better(steadyCPU, false), spread(steadyTps)
	}
	if o.open.elapsed == 0 {
		s.latencySummary(steady)
		s.tailSamples = s.latSamples
		var all []sample
		for _, w := range steady {
			all = append(all, w...)
		}
		s.overheadUs = overheadUs(all)
		if o.single.elapsed == 0 {
			s.singleP50Us = s.p50 * 1000
			s.writeShare = writeShare(all)
		}
	}
	return s
}

func overheadUs(samples []sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var total time.Duration
	for _, x := range samples {
		total += x.lat - x.coord
	}
	return float64(total) / float64(len(samples)) / float64(time.Microsecond)
}

func writeShare(samples []sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	n := 0
	for _, x := range samples {
		if x.write {
			n++
		}
	}
	return float64(n) / float64(len(samples))
}
