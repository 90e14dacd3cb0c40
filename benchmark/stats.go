package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of sorted by linear
// interpolation between closest ranks. It panics on an empty slice: every
// caller has already checked its sample count.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sortedCopy returns a sorted copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the 0.5-quantile of v (v is not modified).
func median(v []float64) float64 {
	return percentile(sortedCopy(v), 0.5)
}

// relIQR is the distance between the first and third quartile of v as a share
// of its median — the spread figure printed beside every slice-median metric.
func relIQR(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sortedCopy(v)
	med := percentile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (percentile(s, 0.75) - percentile(s, 0.25)) / math.Abs(med)
}

// tailSupported reports whether a sample of n values supports the p-quantile
// under the "at least ten samples beyond it" rule.
func tailSupported(n int, p float64) bool {
	return float64(n)*(1-p) >= 10
}

// sliceQuantile computes the p-quantile of each slice's samples and returns
// the per-slice values. ok is false when any slice has too few samples for
// the quantile (fewer than ten beyond it, or none at all for the median).
func sliceQuantile(slices [][]float64, p float64) (perSlice []float64, ok bool) {
	ok = true
	for _, s := range slices {
		if len(s) == 0 {
			return nil, false
		}
		if p > 0.5 && !tailSupported(len(s), p) {
			ok = false
		}
		perSlice = append(perSlice, percentile(sortedCopy(s), p))
	}
	return perSlice, ok
}
