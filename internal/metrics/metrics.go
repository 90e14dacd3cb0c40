// Package metrics provides the measurement substrate for the experiment
// harness: time series of (t, value) points, fixed-width window counters for
// per-second rates (the "overdue requests/second" curves of Figures 10–16),
// and summary statistics.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Point is one sample of a time series.
type Point struct {
	T float64
	V float64
}

// TimeSeries is an append-only series of samples in time order.
type TimeSeries struct {
	Name   string
	points []Point
}

// NewTimeSeries returns an empty named series.
func NewTimeSeries(name string) *TimeSeries { return &TimeSeries{Name: name} }

// Append adds a sample; time must be non-decreasing.
func (ts *TimeSeries) Append(t, v float64) error {
	if n := len(ts.points); n > 0 && t < ts.points[n-1].T {
		return fmt.Errorf("metrics: %s: time went backwards %v -> %v", ts.Name, ts.points[n-1].T, t)
	}
	ts.points = append(ts.points, Point{T: t, V: v})
	return nil
}

// Points returns a copy of the samples.
func (ts *TimeSeries) Points() []Point {
	return append([]Point(nil), ts.points...)
}

// Len returns the sample count.
func (ts *TimeSeries) Len() int { return len(ts.points) }

// Mean returns the mean value, or NaN when empty.
func (ts *TimeSeries) Mean() float64 {
	if len(ts.points) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, p := range ts.points {
		s += p.V
	}
	return s / float64(len(ts.points))
}

// MeanAfter returns the mean of samples with T >= t0 (NaN when none) — used
// to measure converged behaviour after an RL warm-up prefix.
func (ts *TimeSeries) MeanAfter(t0 float64) float64 {
	s, n := 0.0, 0
	for _, p := range ts.points {
		if p.T >= t0 {
			s += p.V
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}

// Rebin aggregates the series into fixed-width time bins, returning the mean
// value per bin — how the figure plotter downsamples long runs.
func (ts *TimeSeries) Rebin(width float64) []Point {
	if width <= 0 || len(ts.points) == 0 {
		return nil
	}
	var out []Point
	start := ts.points[0].T
	binIdx := 0
	sum, n := 0.0, 0
	flush := func() {
		if n > 0 {
			out = append(out, Point{T: start + (float64(binIdx)+0.5)*width, V: sum / float64(n)})
		}
		sum, n = 0, 0
	}
	for _, p := range ts.points {
		idx := int((p.T - start) / width)
		if idx != binIdx {
			flush()
			binIdx = idx
		}
		sum += p.V
		n++
	}
	flush()
	return out
}

// WindowCounter counts events into fixed-width time windows, producing a
// rate series (events/second).
type WindowCounter struct {
	Width float64
	// Keep, when > 0, bounds retention to the most recent Keep windows:
	// older windows are discarded as time advances, so a long-lived
	// counter that only feeds recent-rate queries (TotalSince) stays O(1)
	// in memory instead of growing one entry per elapsed window forever.
	// Total/Rate then cover only the retained span.
	Keep   int
	counts map[int]float64
	minIdx int
	maxIdx int
	any    bool
}

// NewWindowCounter returns a counter with the given window width in seconds.
func NewWindowCounter(width float64) *WindowCounter {
	if width <= 0 {
		width = 1
	}
	return &WindowCounter{Width: width, counts: map[int]float64{}}
}

// Add records weight events at time t.
func (w *WindowCounter) Add(t, weight float64) {
	idx := int(math.Floor(t / w.Width))
	w.counts[idx] += weight
	if !w.any || idx < w.minIdx {
		w.minIdx = idx
	}
	if !w.any || idx > w.maxIdx {
		w.maxIdx = idx
	}
	w.any = true
	if w.Keep > 0 {
		for lo := w.maxIdx - w.Keep; w.minIdx <= lo; w.minIdx++ {
			delete(w.counts, w.minIdx)
		}
	}
}

// Rate returns one point per window covering the observed span, valued as
// events/second (empty windows report zero).
func (w *WindowCounter) Rate() []Point {
	if !w.any {
		return nil
	}
	out := make([]Point, 0, w.maxIdx-w.minIdx+1)
	for i := w.minIdx; i <= w.maxIdx; i++ {
		out = append(out, Point{
			T: (float64(i) + 0.5) * w.Width,
			V: w.counts[i] / w.Width,
		})
	}
	return out
}

// TotalSince returns the sum of weights recorded in windows starting at or
// after time t — the recent-activity tail a live rate estimate reads.
func (w *WindowCounter) TotalSince(t float64) float64 {
	if !w.any {
		return 0
	}
	lo := int(math.Floor(t / w.Width))
	if lo < w.minIdx {
		lo = w.minIdx
	}
	s := 0.0
	for i := lo; i <= w.maxIdx; i++ {
		s += w.counts[i]
	}
	return s
}

// Total returns the sum of all recorded weights.
func (w *WindowCounter) Total() float64 {
	s := 0.0
	for _, c := range w.counts {
		s += c
	}
	return s
}

// Summary holds order statistics of a sample set.
type Summary struct {
	N                  int
	Mean, Min, Max     float64
	P50, P90, P95, P99 float64
}

// Summarize computes summary statistics of values.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	q := func(p float64) float64 {
		idx := int(math.Ceil(p*float64(len(s)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(s) {
			idx = len(s) - 1
		}
		return s[idx]
	}
	return Summary{
		N:    len(s),
		Mean: sum / float64(len(s)),
		Min:  s[0],
		Max:  s[len(s)-1],
		P50:  q(0.50),
		P90:  q(0.90),
		P95:  q(0.95),
		P99:  q(0.99),
	}
}

// Histogram counts values into equal-width bins over [lo, hi); values
// outside clamp into the boundary bins (Figures 8b/9b).
type Histogram struct {
	Lo, Hi float64
	Counts []int
}

// NewHistogram returns a histogram with n bins over [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("metrics: invalid histogram configuration")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n)}
}

// Add records one value.
func (h *Histogram) Add(v float64) {
	n := len(h.Counts)
	idx := int(float64(n) * (v - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	h.Counts[idx]++
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*width
}

// Total returns the number of recorded values.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// CountAbove returns how many recorded values fell in bins whose center is
// strictly above x (used for the ">50% accuracy" comparisons of Figure 8b).
func (h *Histogram) CountAbove(x float64) int {
	t := 0
	for i, c := range h.Counts {
		if h.BinCenter(i) > x {
			t += c
		}
	}
	return t
}
