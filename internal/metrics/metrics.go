// Package metrics provides the measurement primitives the experiment
// harness uses: named duration timers (count/total/min/max) and named
// counters. The paper recorded "the execution times of processing events
// ... after a stable state of transaction processing was achieved" and
// reported averages (§2.1); TimerStat.Mean is that average.
package metrics

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"time"
)

// TimerStat is an immutable snapshot of one timer.
type TimerStat struct {
	Count uint64
	Total time.Duration
	Min   time.Duration
	Max   time.Duration
}

// Mean returns the average observation, or zero if none were recorded.
func (s TimerStat) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// String implements fmt.Stringer.
func (s TimerStat) String() string {
	return fmt.Sprintf("n=%d mean=%v min=%v max=%v", s.Count, s.Mean(), s.Min, s.Max)
}

// HistBuckets is the number of fixed power-of-two histogram buckets.
// Bucket i holds durations d with bits.Len64(d nanoseconds) == i, i.e.
// [2^(i-1), 2^i) ns, so the range spans sub-nanosecond to ~292 years.
const HistBuckets = 65

// bucketOf maps a duration to its histogram bucket index.
func bucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d))
}

// bucketLow returns the inclusive lower bound of bucket i.
func bucketLow(i int) time.Duration {
	if i <= 0 {
		return 0
	}
	return time.Duration(1) << (i - 1)
}

// bucketHigh returns the exclusive upper bound of bucket i.
func bucketHigh(i int) time.Duration {
	if i >= 63 {
		return time.Duration(1<<63 - 1)
	}
	return time.Duration(1) << i
}

// HistogramStat is an immutable snapshot of one latency histogram: the
// same count/total/min/max as TimerStat plus the bucket populations,
// which make tail quantiles recoverable. The paper reports only means
// (§2.1); recovery-time stalls live in the tail, so snapshots carry
// enough to answer p50/p95/p99.
type HistogramStat struct {
	Count   uint64
	Total   time.Duration
	Min     time.Duration
	Max     time.Duration
	Buckets [HistBuckets]uint64
}

// Mean returns the average observation, or zero if none were recorded.
func (h HistogramStat) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Total / time.Duration(h.Count)
}

// Quantile returns an estimate of the p-th quantile (p in [0,1]). The
// estimate interpolates linearly inside the bucket holding the target
// rank and is clamped to the observed [Min, Max]. An empty histogram
// returns 0; p <= 0 returns Min; p >= 1 returns Max.
func (h HistogramStat) Quantile(p float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	if p <= 0 {
		return h.Min
	}
	if p >= 1 {
		return h.Max
	}
	rank := uint64(p * float64(h.Count))
	if rank >= h.Count {
		rank = h.Count - 1
	}
	var seen uint64
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if rank < seen+n {
			lo, hi := bucketLow(i), bucketHigh(i)
			// Position of the target rank within this bucket.
			frac := (float64(rank-seen) + 0.5) / float64(n)
			est := lo + time.Duration(frac*float64(hi-lo))
			if est < h.Min {
				est = h.Min
			}
			if est > h.Max {
				est = h.Max
			}
			return est
		}
		seen += n
	}
	return h.Max
}

// Merge folds other into h, combining two sites' histograms of the same
// event class.
func (h *HistogramStat) Merge(other HistogramStat) {
	if other.Count == 0 {
		return
	}
	if h.Count == 0 || other.Min < h.Min {
		h.Min = other.Min
	}
	if other.Max > h.Max {
		h.Max = other.Max
	}
	h.Count += other.Count
	h.Total += other.Total
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
}

// timer projects the histogram onto the timer it extends.
func (h *HistogramStat) timer() TimerStat {
	return TimerStat{Count: h.Count, Total: h.Total, Min: h.Min, Max: h.Max}
}

// String implements fmt.Stringer, including the tail quantiles.
func (h HistogramStat) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max)
}

// Registry is a set of named timers, histograms and counters, safe for
// concurrent use. A timer is its histogram's count/total/min/max, so the
// two are one record per name. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	hists    map[string]*HistogramStat
	counters map[string]uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		hists:    make(map[string]*HistogramStat),
		counters: make(map[string]uint64),
	}
}

// Observe records one duration under name, as both the timer and the
// histogram of that name.
func (r *Registry) Observe(name string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &HistogramStat{Min: d, Max: d}
		r.hists[name] = h
	}
	h.Count++
	h.Total += d
	if d < h.Min {
		h.Min = d
	}
	if d > h.Max {
		h.Max = d
	}
	h.Buckets[bucketOf(d)]++
}

// Time runs fn and records its duration under name.
func (r *Registry) Time(name string, fn func()) {
	start := time.Now()
	fn()
	r.Observe(name, time.Since(start))
}

// Add increments the named counter by n.
func (r *Registry) Add(name string, n uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] += n
}

// Counter returns the current value of the named counter.
func (r *Registry) Counter(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Timer returns a snapshot of the named timer; the zero TimerStat if it was
// never observed.
func (r *Registry) Timer(name string) TimerStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h.timer()
	}
	return TimerStat{}
}

// Timers returns a snapshot of every timer.
func (r *Registry) Timers() map[string]TimerStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]TimerStat, len(r.hists))
	for k, h := range r.hists {
		out[k] = h.timer()
	}
	return out
}

// Histogram returns a snapshot of the named histogram; the zero
// HistogramStat if it was never observed.
func (r *Registry) Histogram(name string) HistogramStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return *h
	}
	return HistogramStat{}
}

// Histograms returns a snapshot of every histogram.
func (r *Registry) Histograms() map[string]HistogramStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]HistogramStat, len(r.hists))
	for k, v := range r.hists {
		out[k] = *v
	}
	return out
}

// Counters returns a snapshot of every counter.
func (r *Registry) Counters() map[string]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// Reset discards all observations, keeping the registry usable. The
// experiment harness resets after warm-up so reported averages cover only
// the stable state, as in the paper.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hists = make(map[string]*HistogramStat)
	r.counters = make(map[string]uint64)
}

// String renders every timer and counter, sorted by name.
func (r *Registry) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.hists)+len(r.counters))
	for k := range r.hists {
		names = append(names, "T "+k)
	}
	for k := range r.counters {
		names = append(names, "C "+k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		kind, name := n[:1], n[2:]
		if kind == "T" {
			fmt.Fprintf(&b, "timer %-24s %s\n", name, r.hists[name].String())
		} else {
			fmt.Fprintf(&b, "count %-24s %d\n", name, r.counters[name])
		}
	}
	return b.String()
}

// Series records one float64 value per step — the data behind the paper's
// figures (e.g. "number of fail-locks set" per transaction number). It is
// append-only and safe for concurrent use.
type Series struct {
	mu   sync.Mutex
	name string
	vals []float64
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{name: name} }

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Append adds one value.
func (s *Series) Append(v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vals = append(s.vals, v)
}

// Values returns a copy of the recorded values.
func (s *Series) Values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, len(s.vals))
	copy(out, s.vals)
	return out
}

// Len returns the number of recorded values.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.vals)
}
