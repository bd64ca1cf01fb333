package main

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestOpenLoopIssuesEveryArrivalOnSchedule(t *testing.T) {
	var issued atomic.Int64
	p := openLoop(4, 2000, 250*time.Millisecond, func(int) (sample, bool) {
		issued.Add(1)
		return sample{}, true
	})
	if p.attempted != 500 || p.committed != 500 || issued.Load() != 500 {
		t.Fatalf("attempted %d committed %d issued %d, want 500 each", p.attempted, p.committed, issued.Load())
	}
	if p.elapsed < 240*time.Millisecond || p.elapsed > 400*time.Millisecond {
		t.Errorf("500 arrivals at 2000/s took %v", p.elapsed)
	}
	// An instant system: every arrival is claimed early, so its latency
	// runs from its worker's wake-up and the sleep's overshoot is
	// reported as lateness, not as latency.
	// (The host may freeze the test between two clock readings, so a few
	// samples are allowed to be slow.)
	slow := 0
	for _, s := range p.samples {
		if s.lat > 5*time.Millisecond {
			slow++
		}
	}
	if slow > len(p.samples)/20 {
		t.Fatalf("%d of %d instant transactions took over 5 ms: the sleep's overshoot leaked into their latency", slow, len(p.samples))
	}
}

func TestOpenLoopCatchesUpAndChargesTheBacklog(t *testing.T) {
	// One worker, 100 arrivals at 1000/s, and a system that stalls for
	// 60 ms on the tenth: the arrivals due during the stall are issued
	// back to back afterwards, each timed from its own due time.
	n := 0
	p := openLoop(1, 1000, 100*time.Millisecond, func(int) (sample, bool) {
		n++
		if n == 10 {
			time.Sleep(60 * time.Millisecond)
		}
		return sample{}, true
	})
	if p.committed != 100 {
		t.Fatalf("committed %d of 100: arrivals were dropped instead of caught up", p.committed)
	}
	var worst time.Duration
	for _, s := range p.samples {
		if s.lat > worst {
			worst = s.lat
		}
	}
	if worst < 50*time.Millisecond {
		t.Errorf("worst latency %v: the stall was not charged to the arrivals queued behind it", worst)
	}
	if p.elapsed > 250*time.Millisecond {
		t.Errorf("run took %v: the backlog was not caught up", p.elapsed)
	}
}

func TestOpenLoopUsesAFixedPool(t *testing.T) {
	before := runtime.NumGoroutine()
	var peak atomic.Int64
	openLoop(3, 5000, 100*time.Millisecond, func(int) (sample, bool) {
		if g := int64(runtime.NumGoroutine()); g > peak.Load() {
			peak.Store(g)
		}
		return sample{}, true
	})
	if extra := int(peak.Load()) - before; extra > 3 {
		t.Errorf("%d goroutines above the baseline with a pool of 3", extra)
	}
}

func TestClosedLoopLimitAndDeadline(t *testing.T) {
	var issued atomic.Int64
	issue := func(int) (sample, bool) { n := issued.Add(1); return sample{write: n%2 == 0}, n%10 != 0 }
	p := closedLoop(4, 1000, time.Time{}, issue)
	if p.attempted != 1000 || p.committed != 900 || len(p.samples) != 900 {
		t.Errorf("limit 1000: attempted %d committed %d samples %d", p.attempted, p.committed, len(p.samples))
	}
	start := time.Now()
	p = closedLoop(2, 0, start.Add(50*time.Millisecond), func(int) (sample, bool) {
		time.Sleep(time.Millisecond)
		return sample{}, true
	})
	if d := time.Since(start); d < 50*time.Millisecond || d > 200*time.Millisecond {
		t.Errorf("deadline of 50 ms ended after %v", d)
	}
	if p.committed == 0 {
		t.Error("nothing committed before the deadline")
	}
}

func TestWindowsSplitByReplyTime(t *testing.T) {
	p := phase{elapsed: 4 * time.Second}
	for i := 0; i < 400; i++ {
		p.samples = append(p.samples, sample{end: time.Duration(i) * 10 * time.Millisecond})
	}
	p.samples = append(p.samples, sample{end: 4 * time.Second}) // on the edge: last window
	w := p.windows(4)
	if len(w) != 4 || len(w[0]) != 100 || len(w[3]) != 101 {
		t.Errorf("windows hold %d %d %d %d samples", len(w[0]), len(w[1]), len(w[2]), len(w[3]))
	}
	if got := p.windows(0); len(got) != 1 || len(got[0]) != 401 {
		t.Error("zero windows must mean one window with everything")
	}
}
