package advisor

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"rafiki/internal/gp"
	"rafiki/internal/sim"
)

// Advisor is the TrialAdvisor of Algorithm 1: it proposes trials and
// collects their measured performance. Implementations must be safe for use
// by one master goroutine (the masters serialize access).
type Advisor interface {
	// Next proposes a trial for the worker, or nil when the search space is
	// exhausted (grid search) — Algorithm 1 line 6.
	Next(worker string) (*Trial, error)
	// Collect records a trial's performance — Algorithm 1 line 12.
	Collect(worker string, t *Trial, perf float64)
	// Best returns the best trial observed so far and its performance.
	Best() (*Trial, float64)
}

// baseAdvisor tracks the incumbent.
type baseAdvisor struct {
	mu       sync.Mutex
	bestT    *Trial
	bestPerf float64
	seen     int
}

// Collect records a result. A non-finite perf (a diverged or failed trial)
// cannot be the incumbent.
func (b *baseAdvisor) Collect(_ string, t *Trial, perf float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seen++
	if !finite(perf) {
		return
	}
	if b.bestT == nil || perf > b.bestPerf {
		b.bestT, b.bestPerf = t.Clone(), perf
	}
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func (b *baseAdvisor) Best() (*Trial, float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.bestT == nil {
		return nil, 0
	}
	return b.bestT.Clone(), b.bestPerf
}

// RandomAdvisor implements random search [Bergstra & Bengio 2012]: every
// trial is an independent draw from the space.
type RandomAdvisor struct {
	baseAdvisor
	space *HyperSpace
	rng   *sim.RNG
	next  int
}

// NewRandomAdvisor returns a random-search advisor.
func NewRandomAdvisor(space *HyperSpace, rng *sim.RNG) *RandomAdvisor {
	return &RandomAdvisor{space: space, rng: rng}
}

// Next implements Advisor. The lock spans the draw: the RNG is not safe for
// concurrent use and workers request trials concurrently.
func (r *RandomAdvisor) Next(string) (*Trial, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := fmt.Sprintf("rand-%d", r.next)
	r.next++
	return r.space.Sample(id, r.rng)
}

// GridAdvisor enumerates a Cartesian grid over the space: range knobs are
// discretized into PointsPerKnob values, categorical knobs enumerate their
// candidates. Next returns nil once the grid is exhausted, which is how a
// Study terminates without a trial budget.
type GridAdvisor struct {
	baseAdvisor
	space  *HyperSpace
	points int
	knobs  []*Knob
	idx    []int
	done   bool
}

// NewGridAdvisor returns a grid-search advisor with pointsPerKnob values per
// range knob.
func NewGridAdvisor(space *HyperSpace, pointsPerKnob int) (*GridAdvisor, error) {
	if pointsPerKnob < 2 {
		return nil, fmt.Errorf("advisor: grid needs >=2 points per knob, got %d", pointsPerKnob)
	}
	knobs, err := space.Knobs()
	if err != nil {
		return nil, err
	}
	return &GridAdvisor{
		space:  space,
		points: pointsPerKnob,
		knobs:  knobs,
		idx:    make([]int, len(knobs)),
	}, nil
}

// Size returns the total number of grid points.
func (g *GridAdvisor) Size() int {
	n := 1
	for _, k := range g.knobs {
		if k.categorical() {
			n *= len(k.Cats)
		} else {
			n *= g.points
		}
	}
	return n
}

// Next implements Advisor.
func (g *GridAdvisor) Next(string) (*Trial, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.done {
		return nil, nil
	}
	t := &Trial{ID: fmt.Sprintf("grid-%v", g.idx), Params: map[string]Value{}}
	for i, k := range g.knobs {
		t.Params[k.Name] = g.valueAt(k, g.idx[i])
	}
	// Odometer increment.
	for i := len(g.idx) - 1; i >= 0; i-- {
		limit := g.points
		if g.knobs[i].categorical() {
			limit = len(g.knobs[i].Cats)
		}
		g.idx[i]++
		if g.idx[i] < limit {
			break
		}
		g.idx[i] = 0
		if i == 0 {
			g.done = true
		}
	}
	return t, nil
}

func (g *GridAdvisor) valueAt(k *Knob, i int) Value {
	if k.categorical() {
		return Value{Str: k.Cats[i], Cat: true}
	}
	frac := float64(i) / float64(g.points-1)
	var v float64
	if k.Log {
		v = k.Min * math.Pow(k.Max/k.Min, frac) // geometric spacing
	} else {
		v = k.Min + frac*(k.Max-k.Min)
	}
	if k.Dtype == Int {
		v = float64(int(v))
	}
	return Value{Num: v}
}

// BayesAdvisor implements Gaussian-process Bayesian optimization [Snoek et
// al. 2012]: trials are encoded into [0,1]^d, a GP models performance, and
// the next trial maximizes expected improvement over random candidates.
type BayesAdvisor struct {
	baseAdvisor
	space *HyperSpace
	rng   *sim.RNG
	model *gp.GP

	// Warmup is the number of random trials before the GP takes over.
	Warmup int
	// Candidates is how many random candidates EI is evaluated on per
	// proposal.
	Candidates int
	// XiExplore is the EI exploration bonus.
	XiExplore float64
	// RefitEvery controls how often kernel hyper-parameters are refit.
	RefitEvery int

	proposals int
	fitN      int // observations the last hyper-parameter fit saw
	fits      int // hyper-parameter fits attempted

	// Candidate-loop scratch: gp.BlockSize trials being scored and, last,
	// the best so far; their encodings back to back.
	cands []*Trial
	vecs  []float64
}

// NewBayesAdvisor returns a Bayesian-optimization advisor.
func NewBayesAdvisor(space *HyperSpace, rng *sim.RNG) *BayesAdvisor {
	return &BayesAdvisor{
		space:      space,
		rng:        rng,
		model:      gp.New(gp.RBF{LengthScale: 0.2, SignalVar: 0.1}, 1e-4),
		Warmup:     8,
		Candidates: 500,
		XiExplore:  0.01,
		RefitEvery: 10,
	}
}

// Next implements Advisor.
func (b *BayesAdvisor) Next(string) (*Trial, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.proposals++
	id := "bo-" + strconv.Itoa(b.proposals)
	n := b.model.N()

	if n < b.Warmup {
		return b.space.Sample(id, b.rng)
	}
	// Keyed on observations since the last fit, not on n itself: workers
	// asking at the same n must not each pay for the grid, and an n that
	// steps over a multiple of RefitEvery must not skip it.
	if b.RefitEvery > 0 && n-b.fitN >= b.RefitEvery {
		b.fitN = n
		b.fits++
		// Best-effort: a failed refit keeps the previous kernel.
		_, _ = b.model.FitHyperparams()
	}
	best, err := b.bestCandidate()
	if err != nil {
		return nil, err
	}
	if best == nil {
		return b.space.Sample(id, b.rng)
	}
	t := best.Clone()
	t.ID = id
	return t, nil
}

// bestCandidate draws Candidates random trials and returns the one with the
// highest expected improvement, nil if none scored; the next call overwrites
// it. Candidates are drawn and scored a block at a time into the same few
// trials, so nothing is allocated per candidate, and no draw depends on a
// score, so the random stream is consumed as by Candidates calls of Sample.
func (b *BayesAdvisor) bestCandidate() (*Trial, error) {
	knobs, err := b.space.resolve()
	if err != nil {
		return nil, err
	}
	for len(b.cands) <= gp.BlockSize {
		b.cands = append(b.cands, &Trial{Params: make(map[string]Value, len(knobs))})
	}
	var best *Trial
	var eis [gp.BlockSize]float64
	bestEI := -1.0
	for left := b.Candidates; left > 0; {
		m := min(left, gp.BlockSize)
		left -= m
		vecs := b.vecs[:0]
		for _, t := range b.cands[:m] {
			b.space.sampleInto(t, knobs, b.rng)
			if vecs, err = encode(knobs, t, vecs); err != nil {
				return nil, err
			}
		}
		b.vecs = vecs
		if err := b.model.ExpectedImprovements(vecs, b.XiExplore, eis[:m]); err != nil {
			return nil, err
		}
		for i, ei := range eis[:m] {
			if ei > bestEI {
				bestEI, best = ei, b.cands[i]
				b.cands[i], b.cands[gp.BlockSize] = b.cands[gp.BlockSize], best
			}
		}
	}
	return best, nil
}

// Collect implements Advisor, feeding the GP. A non-finite perf is kept out
// of the GP: one NaN or Inf observation would make every posterior mean, and
// so every expected improvement, NaN for the rest of the study.
func (b *BayesAdvisor) Collect(worker string, t *Trial, perf float64) {
	b.baseAdvisor.Collect(worker, t, perf)
	if !finite(perf) {
		return
	}
	x, err := b.space.Vector(t)
	if err != nil {
		return // unencodable trials (shouldn't happen) just skip the GP
	}
	b.mu.Lock()
	b.model.Add(x, perf)
	b.mu.Unlock()
}

// Observations returns how many results the GP has absorbed.
func (b *BayesAdvisor) Observations() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.model.N()
}
