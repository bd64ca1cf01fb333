package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// p99 of 500 samples rests on five of them and is noise.
const minBeyond = 10

// rank is the nearest-rank q-quantile (0 < q < 1) of a non-empty sorted
// sample.
func rank(sorted []float64, q float64) float64 {
	r := int(math.Ceil(q * float64(len(sorted))))
	if r < 1 {
		r = 1
	}
	return sorted[r-1]
}

// Percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted.
// It refuses a tail percentile with fewer than minBeyond samples beyond
// it; the median only needs a non-empty sample.
func Percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile %g of an empty sample", q)
	}
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %g out of (0,1)", q)
	}
	if beyond := n - int(math.Ceil(q*float64(n))); q > 0.5 && beyond < minBeyond {
		return 0, fmt.Errorf("percentile %g of %d samples has %d beyond it, need %d", q, n, beyond, minBeyond)
	}
	return rank(sorted, q), nil
}

// Median sorts a copy of xs and returns its nearest-rank median, or 0 for
// an empty sample.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return rank(s, 0.5)
}

// Better returns the quartile of xs on the better side — the upper
// quartile when higher is better, the lower one otherwise — or 0 for an
// empty sample. xs are the values of one quantity over the windows (or the
// fail/recover cycles) of a run. A neighbour on the host only ever slows a
// window down, so the better quartile is what the system does when left
// alone, as long as a quarter of the windows were; a median moves as soon
// as half of them are disturbed (see README.md, "Why the better quartile").
func Better(xs []float64, higher bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if higher {
		return s[len(s)-int(math.Ceil(0.25*float64(len(s))))]
	}
	return rank(s, 0.25)
}
