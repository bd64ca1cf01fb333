package main

import "testing"

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(2000)
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 1000}, {0.99, 1980}, {0.001, 2}, {0.9, 1800}} {
		got, err := Percentile(s, c.q)
		if err != nil || got != c.want {
			t.Errorf("Percentile(1..2000, %g) = %g, %v; want %g", c.q, got, err, c.want)
		}
	}
	if got, err := Percentile([]float64{7}, 0.5); err != nil || got != 7 {
		t.Errorf("median of one sample = %g, %v; want 7", got, err)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// p99 of 1000 samples has exactly ten beyond it; of 999 it has nine.
	if _, err := Percentile(seq(1000), 0.99); err != nil {
		t.Errorf("p99 of 1000 samples refused: %v", err)
	}
	if _, err := Percentile(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples accepted with nine samples beyond it")
	}
	if _, err := Percentile(nil, 0.5); err == nil {
		t.Error("percentile of an empty sample accepted")
	}
	for _, q := range []float64{0, 1, -0.1, 1.5} {
		if _, err := Percentile(seq(100), q); err == nil {
			t.Errorf("percentile %g accepted", q)
		}
	}
}

func TestTailFallsBackToSupportedPercentile(t *testing.T) {
	v, q := tail(seq(500), 0.99)
	if q >= 0.99 || v != 490 {
		t.Errorf("tail(1..500, 0.99) = %g at %g; want 490 at 0.98", v, q)
	}
	if v, q := tail(seq(5000), 0.99); q != 0.99 || v != 4950 {
		t.Errorf("tail(1..5000, 0.99) = %g at %g; want 4950 at 0.99", v, q)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("Median = %g, want 3", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("nearest-rank median of four = %g, want 2", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("Median(nil) = %g, want 0", got)
	}
}

func TestBetterQuartile(t *testing.T) {
	xs := []float64{8, 1, 7, 2, 6, 3, 5, 4} // 1..8
	if got := Better(xs, false); got != 2 {
		t.Errorf("lower quartile of 1..8 = %g, want 2", got)
	}
	if got := Better(xs, true); got != 7 {
		t.Errorf("upper quartile of 1..8 = %g, want 7", got)
	}
	if lo, hi := Better([]float64{3}, false), Better([]float64{3}, true); lo != 3 || hi != 3 {
		t.Errorf("quartiles of one value = %g, %g; want 3, 3", lo, hi)
	}
	if Better(nil, true) != 0 {
		t.Error("quartile of nothing must be 0")
	}
	// Three of eight windows slowed to a half do not move it.
	if got := Better([]float64{100, 50, 101, 50, 99, 50, 100, 102}, true); got < 100 {
		t.Errorf("upper quartile with three disturbed windows = %g", got)
	}
}
