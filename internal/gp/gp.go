// Package gp implements Gaussian-process regression with an RBF kernel and
// the expected-improvement acquisition function. It is the statistical core
// of Rafiki's Bayesian-optimization TrialAdvisor (Section 2.2/4.2): the
// optimizer models validation accuracy as a Gaussian process over the
// normalized hyper-parameter space and proposes the point with the highest
// expected improvement over the incumbent.
//
// DESIGN.md §16 has the cost model: a refit under an unchanged kernel extends
// the Cholesky factor by the new rows in O(n²) instead of refactoring.
package gp

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"rafiki/internal/linalg"
)

// RBF is the squared-exponential kernel σf²·exp(-‖a−b‖²/(2ℓ²)).
type RBF struct {
	LengthScale float64
	SignalVar   float64
}

// Eval returns the covariance between two points.
func (k RBF) Eval(a, b []float64) float64 { return k.of(sqDist(a, b)) }

// of returns the covariance at squared distance d2.
func (k RBF) of(d2 float64) float64 {
	return k.SignalVar * math.Exp(-d2/(2*k.LengthScale*k.LengthScale))
}

func sqDist(a, b []float64) float64 {
	d2 := 0.0
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return d2
}

// BlockSize is how many points ExpectedImprovements scores per pass over the
// factor, the width of linalg's vector kernels; a caller streaming
// candidates should hand over multiples of it.
const BlockSize = linalg.Block

// GP is a Gaussian-process regressor. Observations are added incrementally;
// the posterior is refit lazily on the next prediction. It is not safe for
// concurrent use: predictions share scratch buffers.
type GP struct {
	Kernel   RBF
	NoiseVar float64

	dim   int
	xs    []float64 // observations, dim values each
	ys    []float64
	ySum  float64
	bestY float64

	// fitted state: chol factors K(fitted)+NoiseVar·I over the first
	// chol.N() observations, alpha and yMean cover the first fitN.
	chol   linalg.Chol
	fitted RBF
	fitN   int
	alpha  linalg.Vector
	yMean  float64

	// Scratch kept across calls is O(BlockSize·n), at most 2n rows, as a
	// finished study's advisor stays reachable; a full factorisation's O(n²)
	// buffers are not.
	ks   linalg.Vector // one kernel row
	blk  []float64     // BlockSize kernel rows, interleaved for SolveLowerBlock
	cols []float64     // a block's points by coordinate: coordinate j of lane c at j*BlockSize+c
}

// New returns a GP with the given kernel and observation-noise variance.
func New(kernel RBF, noiseVar float64) *GP {
	if noiseVar <= 0 {
		noiseVar = 1e-6
	}
	return &GP{Kernel: kernel, NoiseVar: noiseVar, bestY: math.Inf(-1)}
}

// Add appends an observation (x, y). x is copied. Every observation must
// have the dimension of the first.
func (g *GP) Add(x []float64, y float64) {
	if len(g.ys) == 0 {
		g.dim = len(x)
	} else if len(x) != g.dim {
		panic(fmt.Sprintf("gp: observation of dimension %d in a %d-dimensional model", len(x), g.dim))
	}
	g.xs = append(g.xs, x...)
	g.ys = append(g.ys, y)
	g.ySum += y
	if y > g.bestY {
		g.bestY = y
	}
}

func (g *GP) x(i int) []float64 { return g.xs[i*g.dim : (i+1)*g.dim] }

// N returns the number of observations.
func (g *GP) N() int { return len(g.ys) }

// BestY returns the maximum observed value, or -Inf when empty.
func (g *GP) BestY() float64 { return g.bestY }

// ErrNoData is returned when predicting from an empty GP.
var ErrNoData = errors.New("gp: no observations")

// refit brings the factor and alpha up to date with the observations and the
// kernel. New observations under the kernel the factor was built with extend
// it row by row; a changed kernel, or a row whose pivot is not positive,
// takes the full factorisation and its jitter ladder.
func (g *GP) refit() error {
	n := len(g.ys)
	if n == 0 {
		return ErrNoData
	}
	if g.fitN == n && g.fitted == g.Kernel {
		return nil
	}
	extended := g.fitted == g.Kernel && g.chol.N() > 0
	for i := g.chol.N(); extended && i < n; i++ {
		row := g.ks[:0]
		for j := 0; j <= i; j++ {
			row = append(row, g.Kernel.Eval(g.x(j), g.x(i)))
		}
		row[i] += g.NoiseVar
		g.ks = row
		extended = g.chol.Append(row)
	}
	if !extended {
		e := g.sqDists(nil)
		expOver(e, e, g.Kernel.LengthScale)
		if err := g.factor(&g.chol, e, e, g.Kernel.SignalVar); err != nil {
			g.fitted, g.fitN = RBF{}, 0
			return err
		}
		g.fitted = g.Kernel
	}
	g.alpha = g.solve(&g.chol, g.alpha)
	g.yMean, g.fitN = g.ySum/float64(n), n
	return nil
}

// sqDists appends to d2[:0] the squared distance between every pair of
// observations, packed like the factor: row i holds d²(i, 0..i).
func (g *GP) sqDists(d2 []float64) []float64 {
	n := len(g.ys)
	d2 = slices.Grow(d2[:0], n*(n+1)/2)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			d2 = append(d2, sqDist(g.x(j), g.x(i)))
		}
	}
	return d2
}

// expOver sets e to exp(−d²/2ℓ²) elementwise, a block at a time: the part of
// the kernel matrix that depends on the length scale alone. e may be d2.
func expOver(e, d2 []float64, lengthScale float64) {
	den := 2 * lengthScale * lengthScale
	for len(d2) > 0 {
		var blk [linalg.Block]float64
		m := min(len(d2), linalg.Block)
		for c, v := range d2[:m] {
			blk[c] = -v / den
		}
		linalg.ExpBlock(&blk)
		copy(e, blk[:m])
		e, d2 = e[m:], d2[m:]
	}
}

// factor sets c to the factor of m = signalVar·e + NoiseVar·I, e being
// expOver at the kernel's length scale, from scratch. m may be e.
func (g *GP) factor(c *linalg.Chol, m, e []float64, signalVar float64) error {
	n := len(g.ys)
	for i, v := range e {
		m[i] = signalVar * v
	}
	for i := 0; i < n; i++ {
		m[i*(i+1)/2+i] += g.NoiseVar
	}
	if err := c.Factor(m, n); err != nil {
		return fmt.Errorf("gp: kernel matrix: %w", err)
	}
	return nil
}

// solve returns alpha = K⁻¹(y − mean) against the factor c, in alpha's
// storage.
func (g *GP) solve(c *linalg.Chol, alpha linalg.Vector) linalg.Vector {
	yMean := g.ySum / float64(len(g.ys))
	alpha = alpha[:0]
	for _, y := range g.ys {
		alpha = append(alpha, y-yMean)
	}
	c.SolveLower(alpha)
	c.SolveUpperT(alpha)
	return alpha
}

// logEvidence is the log marginal likelihood of the observations given the
// factor c and its alpha.
func (g *GP) logEvidence(c *linalg.Chol, alpha linalg.Vector) float64 {
	yMean := g.ySum / float64(len(g.ys))
	quad := 0.0
	for i, y := range g.ys {
		quad += (y - yMean) * alpha[i]
	}
	return -0.5*quad - c.LogDiagSum() - 0.5*float64(len(g.ys))*math.Log(2*math.Pi)
}

// Predict returns the posterior mean and variance at x.
func (g *GP) Predict(x []float64) (mean, variance float64, err error) {
	if err := g.refit(); err != nil {
		return 0, 0, err
	}
	ks := g.ks[:0]
	for i := range g.ys {
		ks = append(ks, g.Kernel.Eval(g.x(i), x))
	}
	g.ks = ks
	mean = g.yMean + ks.Dot(g.alpha)
	g.chol.SolveLower(ks)
	return mean, max(g.Kernel.Eval(x, x)-ks.Dot(ks), 0), nil
}

// LogMarginalLikelihood returns the GP log evidence for the current data.
func (g *GP) LogMarginalLikelihood() (float64, error) {
	if err := g.refit(); err != nil {
		return 0, err
	}
	return g.logEvidence(&g.chol, g.alpha), nil
}

// The hyper-parameter grid FitHyperparams searches, length-scale major.
var (
	fitLengths = [...]float64{0.05, 0.1, 0.2, 0.3, 0.5, 1.0}
	fitSignals = [...]float64{0.01, 0.05, 0.1, 0.5, 1.0}
)

// fitSpace is one FitHyperparams' workspace: O(n²) floats that live only as
// long as the fit, pooled because a GP holding them would multiply them by
// every advisor that stays reachable (DESIGN.md §16).
type fitSpace struct {
	// d2 holds the pairwise squared distances, packed like the factor, and
	// once e is taken from them, the matrix of a lane Factor takes alone.
	d2    []float64
	e     []float64 // exp(−d²/2ℓ²), one packed triangle per grid length scale
	m     []float64 // linalg.Lanes kernel matrices interleaved by lane, then their factors
	chol  linalg.Chol
	alpha linalg.Vector
}

// fitSpaces is the pool of idle workspaces. It is a free list, not a
// sync.Pool: a GC empties a sync.Pool, and each refill regrows a workspace
// (≈1.2 MB at n = 150), so the smaller the live heap, the more often fits
// paid for one. It keeps at most GOMAXPROCS workspaces.
var fitSpaces struct {
	mu   sync.Mutex
	idle []*fitSpace
}

func getFitSpace() *fitSpace {
	fitSpaces.mu.Lock()
	defer fitSpaces.mu.Unlock()
	n := len(fitSpaces.idle)
	if n == 0 {
		return new(fitSpace)
	}
	ws := fitSpaces.idle[n-1]
	fitSpaces.idle = fitSpaces.idle[:n-1]
	return ws
}

func putFitSpace(ws *fitSpace) {
	fitSpaces.mu.Lock()
	defer fitSpaces.mu.Unlock()
	if len(fitSpaces.idle) < runtime.GOMAXPROCS(0) {
		fitSpaces.idle = append(fitSpaces.idle, ws)
	}
}

// FitHyperparams grid-searches length scale and signal variance to maximize
// the log marginal likelihood, keeping the first maximum in grid order. It
// mutates the kernel in place, leaves the factor at the winner, and returns
// the best likelihood found; when no grid point factors, the kernel and the
// factor are left as they were. A small grid suffices for the normalized
// [0,1]^d hyper-parameter spaces Rafiki tunes over. Distances are taken once
// per fit and exponentials once per length scale; the grid points are
// factored linalg.Lanes at a time, and a point whose unjittered attempt fails
// is factored alone, as a from-scratch refit would factor it.
func (g *GP) FitHyperparams() (float64, error) {
	n := len(g.ys)
	if n == 0 {
		return 0, ErrNoData
	}
	ws := getFitSpace()
	defer putFitSpace(ws)
	ws.d2 = g.sqDists(ws.d2)
	tri := len(ws.d2)
	ws.e = slices.Grow(ws.e[:0], len(fitLengths)*tri)[:len(fitLengths)*tri]
	for i, l := range fitLengths {
		expOver(ws.e[i*tri:(i+1)*tri], ws.d2, l)
	}
	ws.m = slices.Grow(ws.m[:0], linalg.Lanes*tri)[:linalg.Lanes*tri]
	// point returns grid point p's kernel and its length scale's exponentials.
	point := func(p int) (RBF, []float64) {
		l := p / len(fitSignals)
		return RBF{LengthScale: fitLengths[l], SignalVar: fitSignals[p%len(fitSignals)]}, ws.e[l*tri:][:tri]
	}
	const points = len(fitLengths) * len(fitSignals)
	bestLL, best := math.Inf(-1), g.Kernel
	for p0 := 0; p0 < points; p0 += linalg.Lanes {
		// Each lane's matrix is formed as factor forms it. Lanes past the
		// last point refactor it; their results are dropped.
		for lane := range linalg.Lanes {
			k, e := point(min(p0+lane, points-1))
			for i, v := range e {
				ws.m[i*linalg.Lanes+lane] = k.SignalVar * v
			}
			for i := 0; i < n; i++ {
				ws.m[(i*(i+1)/2+i)*linalg.Lanes+lane] += g.NoiseVar
			}
		}
		ok := linalg.FactorLanes(ws.m, n)
		for lane := range min(linalg.Lanes, points-p0) {
			k, e := point(p0 + lane)
			if ok>>lane&1 == 1 {
				ws.chol.SetLane(ws.m, n, lane)
			} else if g.factor(&ws.chol, ws.d2, e, k.SignalVar) != nil {
				continue
			}
			ws.alpha = g.solve(&ws.chol, ws.alpha)
			if ll := g.logEvidence(&ws.chol, ws.alpha); ll > bestLL {
				bestLL, best = ll, k
				g.chol, ws.chol = ws.chol, g.chol
				g.alpha, ws.alpha = ws.alpha, g.alpha
			}
		}
	}
	if math.IsInf(bestLL, -1) {
		return 0, errors.New("gp: hyper-parameter fit failed for all grid points")
	}
	g.Kernel, g.fitted = best, best
	g.yMean, g.fitN = g.ySum/float64(n), n
	return bestLL, nil
}

// normalPDF is the standard normal density.
func normalPDF(z float64) float64 {
	return math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi)
}

// normalCDF is the standard normal distribution function.
func normalCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}

// expectedImprovement is EI for maximization over the incumbent best, with
// exploration bonus xi >= 0, at a point with the given posterior.
func expectedImprovement(mean, variance, best, xi float64) float64 {
	sigma := math.Sqrt(variance)
	if sigma < 1e-12 {
		return max(mean-best-xi, 0)
	}
	z := (mean - best - xi) / sigma
	return (mean-best-xi)*normalCDF(z) + sigma*normalPDF(z)
}

// ExpectedImprovement returns EI(x) for maximization against the incumbent
// best observed value, with exploration bonus xi >= 0.
func (g *GP) ExpectedImprovement(x []float64, xi float64) (float64, error) {
	mean, variance, err := g.Predict(x)
	if err != nil {
		return 0, err
	}
	return expectedImprovement(mean, variance, g.bestY, xi), nil
}

// ExpectedImprovements writes into out the EI of the len(out) points stored
// back to back in xs: ExpectedImprovement over a batch, BlockSize points
// sharing each pass over the factor out of one reused block-sized workspace.
// A block's kernel rows are built an observation at a time, the squared
// distances coordinate by coordinate across the lanes and the exponentials by
// one ExpBlock per row; every lane computes what RBF.of and Predict compute,
// operation for operation.
func (g *GP) ExpectedImprovements(xs []float64, xi float64, out []float64) error {
	if err := g.refit(); err != nil {
		return err
	}
	n := len(g.ys)
	if cap(g.blk) < n*BlockSize {
		g.blk = make([]float64, 2*n*BlockSize) // doubling: O(log n) allocations per study
	}
	if len(g.cols) != g.dim*BlockSize {
		g.cols = make([]float64, g.dim*BlockSize)
	}
	blk, cols, kernel, alpha := g.blk[:n*BlockSize], g.cols, g.Kernel, g.alpha
	den := 2 * kernel.LengthScale * kernel.LengthScale
	prior := kernel.of(0)
	for len(out) > 0 {
		m := min(BlockSize, len(out))
		for c := 0; c < BlockSize; c++ {
			// Lanes past the last point rerun it; their results are dropped.
			for j, v := range xs[min(c, m-1)*g.dim:][:g.dim] {
				cols[j*BlockSize+c] = v
			}
		}
		var mean, vv [BlockSize]float64
		for i := 0; i < n; i++ {
			row := (*[BlockSize]float64)(blk[i*BlockSize:])
			linalg.RBFBlock(row, g.x(i), cols, den)
			for c, e := range row {
				k := kernel.SignalVar * e
				row[c] = k
				mean[c] += k * alpha[i]
			}
		}
		g.chol.SolveLowerBlock(blk)
		for i := 0; i < n; i++ {
			for c, v := range blk[i*BlockSize:][:BlockSize] {
				vv[c] += v * v
			}
		}
		for c := 0; c < m; c++ {
			out[c] = expectedImprovement(g.yMean+mean[c], max(prior-vv[c], 0), g.bestY, xi)
		}
		xs, out = xs[m*g.dim:], out[m:]
	}
	return nil
}
