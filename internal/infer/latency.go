package infer

// Latency feedback plane (DESIGN.md §12): observed per-model batch latencies
// from the execution backends fold into an EWMA of the observed/profiled
// ratio, and the dead-banded, quantized ratio rescales every latency the
// planning side consumes — the policy's c(m,b) table and the dispatch
// busy-until commits. A backend that consistently runs slower (or faster)
// than the zoo profile therefore reshapes batching and pacing within a few
// dozen batches, while the default simulated backend reports its planned
// pass time, whose ratio stays inside the dead-band, and leaves every
// estimate bit-identical.

import (
	"math"
	"sync/atomic"
)

const (
	// latEWMAAlpha is the smoothing weight of one observation.
	latEWMAAlpha = 0.2
	// latRatioMin/latRatioMax clamp a single observation's ratio, so one
	// GC pause or clock glitch cannot blow up the estimate.
	latRatioMin = 0.05
	latRatioMax = 20.0
	// latDeadband is the half-width around ratio 1 inside which no scaling
	// is applied: profile noise must not perturb the deterministic planning
	// arithmetic. latQuantum quantizes the applied scale outside the band
	// (a planning row is only rebuilt when the quantized scale moves).
	latDeadband = 0.02
	latQuantum  = 0.01
)

// latModel is one model's feedback state. obs (the observed batch-latency
// EWMA, 0 until a backend reported one) and raw (the observed/profiled ratio
// EWMA, starting at 1) are float64 bits any goroutine folds into lock-free.
// applied and row are decision scratch only the decision path touches: the
// scale its c(m,b) row was last built at, and the rescaled row's buffer.
type latModel struct {
	obs, raw atomic.Uint64
	applied  float64
	row      []float64
}

// scale is the applied scale planning consumes right now.
func (l *latModel) scale() float64 {
	return appliedScale(math.Float64frombits(l.raw.Load()))
}

// foldEWMA folds x into the EWMA held in a: an estimate of 0 (nothing
// observed yet) takes x, one equal to x stays untouched exactly, and any
// other moves latEWMAAlpha of the way to x. Concurrent folds each land once.
func foldEWMA(a *atomic.Uint64, x float64) {
	for {
		old := a.Load()
		cur := math.Float64frombits(old)
		next := x
		if cur != 0 {
			next = cur + latEWMAAlpha*(x-cur)
		}
		if next == cur || a.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// observeLatency feeds one executed batch's observed service latency for
// model m (timeline seconds) into the feedback plane. Observations that are
// not positive and finite, and out-of-range models, are ignored. Safe to call
// concurrently with decision points; it takes no lock and allocates nothing.
func (r *Runtime) observeLatency(m, batch int, observed float64) {
	if m < 0 || m >= len(r.lat) || !(observed > 0) || math.IsInf(observed, 1) {
		return
	}
	profiled := r.d.Profiles[m].BatchLatency(batch)
	if profiled <= 0 {
		return
	}
	ratio := min(max(observed/profiled, latRatioMin), latRatioMax)
	foldEWMA(&r.lat[m].obs, observed)
	foldEWMA(&r.lat[m].raw, ratio)
}

// appliedScale turns a raw ratio EWMA into the scale planning consumes:
// exactly 1 inside the dead-band, else quantized so a planning row is not
// rebuilt on every observation.
func appliedScale(raw float64) float64 {
	if math.Abs(raw-1) < latDeadband {
		return 1
	}
	return math.Round(raw/latQuantum) * latQuantum
}

// modelLatency is the planning-side service latency of model m at batch size
// b: the profiled value, rescaled by the model's applied scale. At a scale of
// exactly 1 it returns the profile bit-for-bit.
func (r *Runtime) modelLatency(m, b int) float64 {
	lat := r.d.Profiles[m].BatchLatency(b)
	if s := r.lat[m].scale(); s != 1 {
		lat *= s
	}
	return lat
}

// latencyTable is the c(m,b) table the policies plan with, kept in the
// decision scratch: a model at scale 1 shares the deployment's profile row,
// and a rescaled model's row is rebuilt in place when its scale moved. Only
// the decision path (decide, stateAt) calls it.
func (r *Runtime) latencyTable() [][]float64 {
	base := r.d.LatencyTable()
	for m := range r.lat {
		l := &r.lat[m]
		s := l.scale()
		if s == l.applied {
			continue
		}
		l.applied = s
		if s == 1 {
			r.table[m] = base[m]
			continue
		}
		if l.row == nil {
			l.row = make([]float64, len(base[m]))
		}
		for j, v := range base[m] {
			l.row[j] = v * s
		}
		r.table[m] = l.row
	}
	return r.table
}
