package main

import (
	"math"
	"testing"
)

func TestPercentileAndMedian(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if m := median(v); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if v[0] != 5 {
		t.Error("median sorted its argument in place")
	}
	s := sortedCopy(v)
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.875, 4.5}, {1, 5}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{1, 2}); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
}

func TestRelIQR(t *testing.T) {
	if got := relIQR([]float64{8, 9, 10, 11, 12}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("relIQR = %v, want 0.2", got)
	}
	if got := relIQR([]float64{7}); got != 0 {
		t.Errorf("relIQR of one value = %v, want 0", got)
	}
}

// A tail percentile is reported only when every slice has at least ten
// samples beyond it; the median needs only a sample.
func TestTenSamplesBeyondRule(t *testing.T) {
	if tailSupported(999, 0.99) || !tailSupported(1000, 0.99) {
		t.Error("p99 must need exactly 1000 samples")
	}
	mk := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)
		}
		return s
	}
	if _, ok := sliceQuantile([][]float64{mk(1000), mk(1200)}, 0.99); !ok {
		t.Error("two slices of ≥1000 samples must support p99")
	}
	if _, ok := sliceQuantile([][]float64{mk(1000), mk(500)}, 0.99); ok {
		t.Error("a slice of 500 samples must not support p99")
	}
	per, ok := sliceQuantile([][]float64{mk(3), mk(5)}, 0.5)
	if !ok || per[0] != 1 || per[1] != 2 {
		t.Errorf("slice medians = %v (ok=%v), want [1 2]", per, ok)
	}
	if _, ok := sliceQuantile([][]float64{mk(3), nil}, 0.5); ok {
		t.Error("an empty slice must not support a median")
	}
}
