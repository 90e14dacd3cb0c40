package gp

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	_ "unsafe" // go:linkname to linalg's CPU gate

	"rafiki/internal/linalg"
	"rafiki/internal/sim"
)

// vectorKernels is linalg's CPU gate. Tests flip it so that the portable
// loops and the vector kernels run in one process.
//
//go:linkname vectorKernels rafiki/internal/linalg.useVector
var vectorKernels bool

func TestRBFKernelProperties(t *testing.T) {
	k := RBF{LengthScale: 0.5, SignalVar: 2}
	x := []float64{0.3, 0.7}
	if got := k.Eval(x, x); math.Abs(got-2) > 1e-12 {
		t.Fatalf("k(x,x) = %v, want signal variance", got)
	}
	a, b := []float64{0, 0}, []float64{1, 1}
	if k.Eval(a, b) != k.Eval(b, a) {
		t.Fatal("kernel not symmetric")
	}
	near := k.Eval([]float64{0, 0}, []float64{0.01, 0})
	far := k.Eval([]float64{0, 0}, []float64{0.9, 0})
	if near <= far {
		t.Fatal("kernel should decay with distance")
	}
}

func TestPredictEmptyErrors(t *testing.T) {
	g := New(RBF{LengthScale: 0.3, SignalVar: 1}, 1e-6)
	if _, _, err := g.Predict([]float64{0.5}); err == nil {
		t.Fatal("expected ErrNoData")
	}
}

func TestGPInterpolatesObservations(t *testing.T) {
	g := New(RBF{LengthScale: 0.2, SignalVar: 1}, 1e-8)
	f := func(x float64) float64 { return math.Sin(5 * x) }
	for _, x := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} {
		g.Add([]float64{x}, f(x))
	}
	for _, x := range []float64{0, 0.4, 1.0} {
		mean, variance, err := g.Predict([]float64{x})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mean-f(x)) > 1e-3 {
			t.Fatalf("mean at observed x=%v: %v, want %v", x, mean, f(x))
		}
		if variance > 1e-4 {
			t.Fatalf("variance at observed point should be ~0, got %v", variance)
		}
	}
	// Between observations the GP should still track a smooth function.
	mean, _, err := g.Predict([]float64{0.3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-f(0.3)) > 0.2 {
		t.Fatalf("interpolation at 0.3: %v, want ~%v", mean, f(0.3))
	}
}

func TestGPVarianceGrowsAwayFromData(t *testing.T) {
	g := New(RBF{LengthScale: 0.1, SignalVar: 1}, 1e-6)
	g.Add([]float64{0.5}, 1)
	_, vNear, _ := g.Predict([]float64{0.52})
	_, vFar, _ := g.Predict([]float64{0.0})
	if vNear >= vFar {
		t.Fatalf("variance should grow with distance: near %v far %v", vNear, vFar)
	}
	if vFar > 1+1e-9 {
		t.Fatalf("variance should be bounded by prior variance, got %v", vFar)
	}
}

func TestBestY(t *testing.T) {
	g := New(RBF{LengthScale: 0.2, SignalVar: 1}, 1e-6)
	if !math.IsInf(g.BestY(), -1) {
		t.Fatal("empty BestY should be -Inf")
	}
	g.Add([]float64{0.1}, 0.3)
	g.Add([]float64{0.2}, 0.9)
	g.Add([]float64{0.3}, 0.5)
	if g.BestY() != 0.9 {
		t.Fatalf("bestY = %v", g.BestY())
	}
	if g.N() != 3 {
		t.Fatalf("n = %d", g.N())
	}
}

func TestExpectedImprovementShape(t *testing.T) {
	g := New(RBF{LengthScale: 0.15, SignalVar: 0.5}, 1e-6)
	g.Add([]float64{0.2}, 0.5)
	g.Add([]float64{0.8}, 0.8)

	eiAtBest, err := g.ExpectedImprovement([]float64{0.8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	eiFar, err := g.ExpectedImprovement([]float64{0.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if eiFar <= eiAtBest {
		t.Fatalf("unexplored point should have higher EI: far %v vs best %v", eiFar, eiAtBest)
	}
	if eiAtBest < 0 || eiFar < 0 {
		t.Fatal("EI must be non-negative")
	}
}

func TestEIZeroVarianceBranch(t *testing.T) {
	g := New(RBF{LengthScale: 0.2, SignalVar: 1}, 1e-12)
	g.Add([]float64{0.5}, 1.0)
	ei, err := g.ExpectedImprovement([]float64{0.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ei > 1e-6 {
		t.Fatalf("EI at fully known best point should be ~0, got %v", ei)
	}
}

func TestLogMarginalLikelihoodPrefersTrueScale(t *testing.T) {
	rng := sim.NewRNG(21)
	truth := RBF{LengthScale: 0.2, SignalVar: 1}
	// Sample a smooth function with that scale: sin is fine.
	g1 := New(truth, 1e-4)
	g2 := New(RBF{LengthScale: 5.0, SignalVar: 1e-3}, 1e-4)
	for i := 0; i < 15; i++ {
		x := rng.Float64()
		y := math.Sin(2 * math.Pi * x)
		g1.Add([]float64{x}, y)
		g2.Add([]float64{x}, y)
	}
	ll1, err := g1.LogMarginalLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	ll2, err := g2.LogMarginalLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	if ll1 <= ll2 {
		t.Fatalf("well-matched kernel should have higher evidence: %v vs %v", ll1, ll2)
	}
}

func TestFitHyperparamsImprovesEvidence(t *testing.T) {
	rng := sim.NewRNG(22)
	g := New(RBF{LengthScale: 5.0, SignalVar: 0.01}, 1e-4)
	for i := 0; i < 20; i++ {
		x := rng.Float64()
		g.Add([]float64{x}, math.Sin(2*math.Pi*x))
	}
	before, err := g.LogMarginalLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	after, err := g.FitHyperparams()
	if err != nil {
		t.Fatal(err)
	}
	if after < before {
		t.Fatalf("fit decreased evidence: %v -> %v", before, after)
	}
	// Prediction quality should now be reasonable.
	mean, _, err := g.Predict([]float64{0.25})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-1) > 0.3 {
		t.Fatalf("post-fit prediction at peak: %v, want ~1", mean)
	}
}

func TestBOLoopFindsOptimum(t *testing.T) {
	// End-to-end mini Bayesian optimization of a 1-D function with EI.
	rng := sim.NewRNG(23)
	f := func(x float64) float64 { return -math.Pow(x-0.73, 2) }
	g := New(RBF{LengthScale: 0.2, SignalVar: 0.5}, 1e-6)
	for i := 0; i < 3; i++ {
		x := rng.Float64()
		g.Add([]float64{x}, f(x))
	}
	for iter := 0; iter < 20; iter++ {
		bestEI, bestX := -1.0, 0.0
		for c := 0; c < 200; c++ {
			x := rng.Float64()
			ei, err := g.ExpectedImprovement([]float64{x}, 0.001)
			if err != nil {
				t.Fatal(err)
			}
			if ei > bestEI {
				bestEI, bestX = ei, x
			}
		}
		g.Add([]float64{bestX}, f(bestX))
	}
	// The best sampled point should be near 0.73.
	bestY := g.BestY()
	if bestY < -0.005 {
		t.Fatalf("BO failed to approach optimum: best f = %v", bestY)
	}
}

func TestNormalHelpers(t *testing.T) {
	if math.Abs(normalCDF(0)-0.5) > 1e-12 {
		t.Fatal("cdf(0) != 0.5")
	}
	if math.Abs(normalPDF(0)-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Fatal("pdf(0) wrong")
	}
	if normalCDF(6) < 0.999999 || normalCDF(-6) > 1e-6 {
		t.Fatal("cdf tails wrong")
	}
}

// denseGP is the textbook fit the incremental model is held to: a dense
// kernel matrix refactored from scratch with linalg.Cholesky, and dense
// triangular solves.
type denseGP struct {
	k     RBF
	xs    [][]float64
	ys    []float64
	chol  *linalg.Matrix
	alpha linalg.Vector
	yMean float64
}

func fitDense(t *testing.T, k RBF, noise float64, xs [][]float64, ys []float64) *denseGP {
	t.Helper()
	n := len(xs)
	d := &denseGP{k: k, xs: xs, ys: ys}
	m := linalg.NewMatrix(n, n)
	for i := range xs {
		for j := range xs {
			m.Set(i, j, k.Eval(xs[i], xs[j]))
		}
		m.Set(i, i, m.At(i, i)+noise)
		d.yMean += ys[i] / float64(n)
	}
	var err error
	if d.chol, err = m.Cholesky(); err != nil {
		t.Fatal(err)
	}
	centered := linalg.NewVector(n)
	for i, y := range ys {
		centered[i] = y - d.yMean
	}
	d.alpha = linalg.CholSolve(d.chol, centered)
	return d
}

func (d *denseGP) predict(x []float64) (mean, variance float64) {
	ks := linalg.NewVector(len(d.xs))
	for i := range d.xs {
		ks[i] = d.k.Eval(d.xs[i], x)
	}
	v := linalg.SolveLower(d.chol, ks)
	return d.yMean + ks.Dot(d.alpha), math.Max(d.k.Eval(x, x)-v.Dot(v), 0)
}

func (d *denseGP) logEvidence() float64 {
	ll := -0.5 * float64(len(d.ys)) * math.Log(2*math.Pi)
	for i, y := range d.ys {
		ll -= 0.5*(y-d.yMean)*d.alpha[i] + math.Log(d.chol.At(i, i))
	}
	return ll
}

// checkAgainstDense compares g with a from-scratch dense fit of the same
// observations, and with a fresh GP given them all at once — which takes the
// full factorisation where g extended its factor, and must agree bit for bit.
func checkAgainstDense(t *testing.T, g *GP, xs [][]float64, ys []float64, probes [][]float64, tol float64) {
	t.Helper()
	dense := fitDense(t, g.Kernel, g.NoiseVar, xs, ys)
	fresh := New(g.Kernel, g.NoiseVar)
	for i := range xs {
		fresh.Add(xs[i], ys[i])
	}
	ll, err := g.LogMarginalLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	if freshLL, _ := fresh.LogMarginalLikelihood(); ll != freshLL {
		t.Fatalf("n=%d: evidence %v, fresh fit %v", len(xs), ll, freshLL)
	}
	if want := dense.logEvidence(); math.Abs(ll-want) > tol*(1+math.Abs(want)) {
		t.Fatalf("n=%d: evidence %v, dense %v", len(xs), ll, want)
	}
	for i, a := range g.alpha {
		if a != fresh.alpha[i] {
			t.Fatalf("n=%d: alpha[%d] %v, fresh fit %v", len(xs), i, a, fresh.alpha[i])
		}
		if math.Abs(a-dense.alpha[i]) > tol*(1+math.Abs(dense.alpha[i])) {
			t.Fatalf("n=%d: alpha[%d] %v, dense %v", len(xs), i, a, dense.alpha[i])
		}
	}
	for _, x := range probes {
		mean, variance, err := g.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if fm, fv, _ := fresh.Predict(x); mean != fm || variance != fv {
			t.Fatalf("n=%d: predict (%v, %v), fresh fit (%v, %v)", len(xs), mean, variance, fm, fv)
		}
		if dm, dv := dense.predict(x); math.Abs(mean-dm) > tol || math.Abs(variance-dv) > tol {
			t.Fatalf("n=%d: predict (%v, %v), dense (%v, %v)", len(xs), mean, variance, dm, dv)
		}
	}
}

func randomPoints(rng *sim.RNG, n, dim int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for j := range pts[i] {
			pts[i][j] = rng.Float64()
		}
	}
	return pts
}

// TestIncrementalFitMatchesFromScratch: after every Add — through a kernel
// change by hand and one by FitHyperparams, both of which force the full
// factorisation — the grown factor gives the alpha, mean, variance and
// evidence of a from-scratch fit. The noise keeps the kernel matrix's
// condition number near 1e4, so that 1e-10 is a bound on arithmetic that
// differs and not on rounding the matrix amplifies.
func TestIncrementalFitMatchesFromScratch(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := sim.NewRNG(seed)
		dim := int(seed) + 1
		xs := randomPoints(rng, 36, dim)
		probes := randomPoints(rng, 3, dim)
		g := New(RBF{LengthScale: 0.3, SignalVar: 0.5}, 1e-2)
		var ys []float64
		for i, x := range xs {
			ys = append(ys, math.Sin(3*x[0])+0.1*rng.Float64())
			g.Add(x, ys[i])
			switch i {
			case 12:
				g.Kernel = RBF{LengthScale: 0.5, SignalVar: 1}
			case 24:
				if _, err := g.FitHyperparams(); err != nil {
					t.Fatal(err)
				}
			}
			checkAgainstDense(t, g, xs[:i+1], ys, probes, 1e-10)
		}
	}
}

// TestIncrementalFitAcrossDuplicates: with next to no noise an exact
// duplicate makes the new pivot zero, the extension is refused and the full
// factorisation climbs the jitter ladder; later rows, a third copy among
// them, extend the jittered factor. The jittered matrix has a condition
// number near 1e10, which is what the tolerance against the dense fit allows
// for; the fresh fit is still matched bit for bit.
func TestIncrementalFitAcrossDuplicates(t *testing.T) {
	rng := sim.NewRNG(5)
	xs := randomPoints(rng, 12, 2)
	xs[1], xs[8] = xs[0], xs[0]
	probes := randomPoints(rng, 3, 2)
	g := New(RBF{LengthScale: 0.3, SignalVar: 1}, 1e-20)
	var ys []float64
	for i, x := range xs {
		ys = append(ys, math.Sin(3*x[0]))
		g.Add(x, ys[i])
		checkAgainstDense(t, g, xs[:i+1], ys, probes, 1e-5)
	}
	// The premise: without jitter the second copy's pivot is not positive.
	var c linalg.Chol
	if k := g.Kernel.Eval(xs[0], xs[1]) + g.NoiseVar; !c.Append([]float64{k}) || c.Append([]float64{k, k}) {
		t.Fatal("a duplicate observation should not factor without jitter")
	}
}

// TestExpectedImprovementsMatchesPerPoint covers every block remainder.
func TestExpectedImprovementsMatchesPerPoint(t *testing.T) {
	rng := sim.NewRNG(6)
	g := New(RBF{LengthScale: 0.3, SignalVar: 0.2}, 1e-4)
	for _, x := range randomPoints(rng, 30, 4) {
		g.Add(x, 0.8+0.1*math.Cos(4*x[1])+0.01*rng.Float64())
	}
	for _, m := range []int{1, 7, 8, 9, 500} {
		var flat []float64
		pts := randomPoints(rng, m, 4)
		for _, p := range pts {
			flat = append(flat, p...)
		}
		got := make([]float64, m)
		if err := g.ExpectedImprovements(flat, 0.01, got); err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			want, err := g.ExpectedImprovement(p, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got[i]-want) > 1e-12 {
				t.Fatalf("%d candidates: EI[%d] = %v, per point %v", m, i, got[i], want)
			}
		}
	}
	if err := New(RBF{LengthScale: 0.3, SignalVar: 1}, 1e-4).ExpectedImprovements(nil, 0, nil); err != ErrNoData {
		t.Fatalf("batch EI on an empty model: %v", err)
	}
}

// TestExpectedImprovementsVectorMatchesPortable: on random models, batch EI
// is bit for bit the same whichever path linalg takes, across block
// remainders, a jittered factor, a hyper-parameter fit, and a length scale
// so short that most exponentials fall below the vector kernel's range to
// zero or subnormal values.
func TestExpectedImprovementsVectorMatchesPortable(t *testing.T) {
	if !vectorKernels {
		t.Skip("vector kernels off: not amd64, purego build, no AVX2+FMA, or GODEBUG moved math.Exp off FMA")
	}
	t.Cleanup(func() { vectorKernels = true })
	models := []struct {
		name     string
		kernel   RBF
		noise    float64
		n, dim   int
		jittered bool // duplicate observations at next to no noise
		fit      bool
	}{
		{"one", RBF{LengthScale: 0.3, SignalVar: 0.2}, 1e-4, 1, 3, false, false},
		{"block-1", RBF{LengthScale: 0.2, SignalVar: 0.1}, 1e-4, 15, 4, false, false},
		{"block", RBF{LengthScale: 0.2, SignalVar: 0.1}, 1e-4, 16, 1, false, false},
		{"block+1", RBF{LengthScale: 0.5, SignalVar: 1}, 1e-3, 17, 6, false, false},
		{"n150", RBF{LengthScale: 0.2, SignalVar: 0.1}, 1e-4, 150, 7, false, false},
		{"short", RBF{LengthScale: 0.01, SignalVar: 1}, 1e-4, 40, 3, false, false},
		{"jittered", RBF{LengthScale: 0.3, SignalVar: 1}, 1e-20, 24, 2, true, false},
		{"fitted", RBF{LengthScale: 0.2, SignalVar: 0.1}, 1e-4, 60, 5, false, true},
	}
	rng := sim.NewRNG(8)
	for _, m := range models {
		xs := randomPoints(rng, m.n, m.dim)
		if m.jittered {
			xs[1], xs[9] = xs[0], xs[0]
		}
		ys := make([]float64, m.n)
		for i, x := range xs {
			ys[i] = math.Sin(3*x[0]) + 0.1*rng.Float64()
		}
		cands := append(randomPoints(rng, 100, m.dim), xs[0]) // 101: a block remainder, one at distance 0
		var flat []float64
		for _, c := range cands {
			flat = append(flat, c...)
		}
		if m.kernel.LengthScale == 0.01 {
			below := 0
			for _, x := range xs {
				for _, c := range cands {
					if -sqDist(x, c)/(2*0.01*0.01) < -708 {
						below++
					}
				}
			}
			if below == 0 {
				t.Fatalf("%s: no kernel value below the vector range", m.name)
			}
		}
		var eis [2][]float64
		var kernels [2]RBF
		for p, vector := range []bool{false, true} {
			vectorKernels = vector
			g := New(m.kernel, m.noise)
			for i, x := range xs {
				g.Add(x, ys[i])
			}
			if m.fit {
				if _, err := g.FitHyperparams(); err != nil {
					t.Fatal(err)
				}
			}
			eis[p] = make([]float64, len(cands))
			if err := g.ExpectedImprovements(flat, 0.01, eis[p]); err != nil {
				t.Fatal(err)
			}
			kernels[p] = g.Kernel
		}
		if kernels[0] != kernels[1] {
			t.Fatalf("%s: fitted kernel %+v portable, %+v vector", m.name, kernels[0], kernels[1])
		}
		for i := range cands {
			if math.Float64bits(eis[0][i]) != math.Float64bits(eis[1][i]) {
				t.Fatalf("%s: EI[%d] = %v portable, %v vector", m.name, i, eis[0][i], eis[1][i])
			}
		}
	}
}

// BenchmarkExpectedImprovements scores 512 candidates against 150
// observations, the size of a late proposal in a 150-trial study, on each
// path.
func BenchmarkExpectedImprovements(b *testing.B) {
	rng := sim.NewRNG(9)
	g := New(RBF{LengthScale: 0.2, SignalVar: 0.1}, 1e-4)
	for _, x := range randomPoints(rng, 150, 7) {
		g.Add(x, math.Sin(3*x[0])+0.1*rng.Float64())
	}
	var flat []float64
	for _, c := range randomPoints(rng, 512, 7) {
		flat = append(flat, c...)
	}
	out := make([]float64, 512)
	if err := g.ExpectedImprovements(flat, 0.01, out); err != nil { // fit and workspace outside the timings
		b.Fatal(err)
	}
	vector := vectorKernels
	defer func() { vectorKernels = vector }()
	for _, path := range []struct {
		name   string
		vector bool
	}{{"vector", true}, {"portable", false}} {
		b.Run(path.name, func(b *testing.B) {
			if path.vector && !vector {
				b.Skip("vector kernels off: not amd64, purego build, no AVX2+FMA, or GODEBUG moved math.Exp off FMA")
			}
			vectorKernels = path.vector
			b.ReportAllocs()
			for b.Loop() {
				if err := g.ExpectedImprovements(flat, 0.01, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestFitWorkspaceOutlivesGC: a refit at the same size reuses the idle
// workspace even when garbage collections ran in between. With the workspace
// in a sync.Pool, two collections emptied it and the refit regrew it, so
// fits allocated more the smaller the live heap was.
func TestFitWorkspaceOutlivesGC(t *testing.T) {
	g := New(RBF{LengthScale: 0.2, SignalVar: 0.1}, 1e-4)
	for _, x := range randomPoints(sim.NewRNG(5), 40, 3) {
		g.Add(x, x[0]-x[1])
	}
	allocs := testing.AllocsPerRun(3, func() {
		runtime.GC()
		runtime.GC()
		if _, err := g.FitHyperparams(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("refit after two collections made %v allocations, want 0", allocs)
	}
}

// TestFitHyperparamsKeepsKernelOnTotalFailure: when no grid point factors,
// the kernel the caller had is the kernel the caller keeps.
func TestFitHyperparamsKeepsKernelOnTotalFailure(t *testing.T) {
	entry := RBF{LengthScale: 0.2, SignalVar: 0.1}
	g := New(entry, 1e-4)
	for _, x := range randomPoints(sim.NewRNG(7), 6, 2) {
		g.Add(x, x[0])
	}
	g.NoiseVar = -10 // every diagonal negative, far beyond what jitter repairs
	if _, err := g.FitHyperparams(); err == nil {
		t.Fatal("fit of a non-positive-definite model should fail")
	}
	if g.Kernel != entry {
		t.Fatalf("failed fit left kernel %+v, want %+v", g.Kernel, entry)
	}
}

// scalarGridFit is FitHyperparams as it was before the grid ran in lanes,
// kept as the reference: every grid point factored from scratch by
// Chol.Factor, solved, and the first maximum of the evidence kept.
func scalarGridFit(g *GP) (best RBF, bestLL float64, chol linalg.Chol, alpha linalg.Vector, err error) {
	n := len(g.ys)
	bestLL = math.Inf(-1)
	for _, l := range fitLengths {
		for _, s := range fitSignals {
			k := RBF{LengthScale: l, SignalVar: s}
			m := make([]float64, 0, n*(n+1)/2)
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					m = append(m, k.of(sqDist(g.x(j), g.x(i))))
				}
				m[len(m)-1] += g.NoiseVar
			}
			var c linalg.Chol
			if c.Factor(m, n) != nil {
				continue
			}
			yMean := g.ySum / float64(n)
			a := linalg.NewVector(n)
			for i, y := range g.ys {
				a[i] = y - yMean
			}
			c.SolveLower(a)
			c.SolveUpperT(a)
			quad := 0.0
			for i, y := range g.ys {
				quad += (y - yMean) * a[i]
			}
			if ll := -0.5*quad - c.LogDiagSum() - 0.5*float64(n)*math.Log(2*math.Pi); ll > bestLL {
				best, bestLL, chol, alpha = k, ll, c, a
			}
		}
	}
	if math.IsInf(bestLL, -1) {
		err = ErrNoData // any error: the fit must fail too
	}
	return best, bestLL, chol, alpha, err
}

// factorBits reads a factor's order, jitter and packed entries as bits.
func factorBits(c *linalg.Chol) []uint64 {
	v := reflect.ValueOf(c).Elem()
	l := v.FieldByName("l")
	bits := []uint64{uint64(v.FieldByName("n").Int()), math.Float64bits(v.FieldByName("jitter").Float())}
	for k := range c.N() * (c.N() + 1) / 2 {
		bits = append(bits, math.Float64bits(l.Index(k).Float()))
	}
	return bits
}

// TestFitHyperparamsMatchesScalarGrid: the grid factored linalg.Lanes points
// at a time picks the kernel, returns the evidence and leaves the factor
// (entries and jitter) and alpha that 30 from-scratch factorisations give, bit
// for bit, on either path: across sizes, on sets whose duplicated points at
// next to no noise send grid points up the jitter ladder (the winner among
// them), and on a set where no grid point factors.
func TestFitHyperparamsMatchesScalarGrid(t *testing.T) {
	sets := []struct {
		name     string
		n, dim   int
		noise    float64
		dups     int // points copied from earlier ones
		laddered bool
		fails    bool
	}{
		{"n9", 9, 3, 1e-4, 0, false, false},
		{"n40", 40, 5, 1e-4, 0, false, false},
		{"n150", 150, 7, 1e-4, 0, false, false},
		{"n40-duplicates", 40, 2, 1e-20, 6, true, false},
		{"n150-duplicates", 150, 7, 1e-20, 20, true, false},
		{"all-fail", 6, 2, -10, 0, false, true},
	}
	entry := RBF{LengthScale: 0.2, SignalVar: 0.1}
	onBothPaths(t, func(t *testing.T) {
		rng := sim.NewRNG(31)
		for _, set := range sets {
			xs := randomPoints(rng, set.n, set.dim)
			for d := 0; d < set.dups; d++ {
				copy(xs[set.n-1-2*d], xs[d])
			}
			g := New(entry, 1e-4)
			for _, x := range xs {
				g.Add(x, math.Sin(3*x[0])+0.1*rng.Float64())
			}
			g.NoiseVar = set.noise
			want, wantLL, wantChol, wantAlpha, wantErr := scalarGridFit(g)
			ll, err := g.FitHyperparams()
			if (err != nil) != set.fails || (wantErr != nil) != set.fails {
				t.Fatalf("%s: fit error %v, reference %v", set.name, err, wantErr)
			}
			if set.fails {
				if g.Kernel != entry {
					t.Fatalf("%s: failed fit left kernel %+v, want %+v", set.name, g.Kernel, entry)
				}
				continue
			}
			if g.Kernel != want || math.Float64bits(ll) != math.Float64bits(wantLL) {
				t.Fatalf("%s: fit chose %+v (evidence %v), reference %+v (%v)", set.name, g.Kernel, ll, want, wantLL)
			}
			if got, ref := factorBits(&g.chol), factorBits(&wantChol); !slices.Equal(got, ref) {
				t.Fatalf("%s: factor differs from the reference's (order and jitter %v, reference %v)", set.name, got[:2], ref[:2])
			}
			if set.laddered && wantChol.N() > 0 && factorBits(&wantChol)[1] == 0 {
				t.Fatalf("%s: the winner took no jitter; the set does not test the ladder", set.name)
			}
			for i, a := range wantAlpha {
				if math.Float64bits(g.alpha[i]) != math.Float64bits(a) {
					t.Fatalf("%s: alpha[%d] %v, reference %v", set.name, i, g.alpha[i], a)
				}
			}
			if g.fitted != want || g.fitN != set.n {
				t.Fatalf("%s: fit left the factor marked %+v over %d observations", set.name, g.fitted, g.fitN)
			}
		}
	})
}

// onBothPaths runs f on the portable loops and then on the vector kernels,
// skipping the vector half where the CPU gate is off.
func onBothPaths(t *testing.T, f func(t *testing.T)) {
	vector := vectorKernels
	t.Cleanup(func() { vectorKernels = vector })
	t.Run("portable", func(t *testing.T) {
		vectorKernels = false
		f(t)
	})
	t.Run("vector", func(t *testing.T) {
		if !vector {
			t.Skip("vector kernels off: not amd64, purego build, no AVX2+FMA, or GODEBUG moved math.Exp off FMA")
		}
		vectorKernels = true
		f(t)
	})
}

// BenchmarkFitHyperparams is one hyper-parameter fit over 150 observations,
// the size of the last fit in a 150-trial study, on each path.
func BenchmarkFitHyperparams(b *testing.B) {
	rng := sim.NewRNG(9)
	g := New(RBF{LengthScale: 0.2, SignalVar: 0.1}, 1e-4)
	for _, x := range randomPoints(rng, 150, 7) {
		g.Add(x, math.Sin(3*x[0])+0.1*rng.Float64())
	}
	vector := vectorKernels
	defer func() { vectorKernels = vector }()
	for _, path := range []struct {
		name   string
		vector bool
	}{{"vector", true}, {"portable", false}} {
		b.Run(path.name, func(b *testing.B) {
			if path.vector && !vector {
				b.Skip("vector kernels off: not amd64, purego build, no AVX2+FMA, or GODEBUG moved math.Exp off FMA")
			}
			vectorKernels = path.vector
			b.ReportAllocs()
			if _, err := g.FitHyperparams(); err != nil { // the pooled workspace outside the timings
				b.Fatal(err)
			}
			for b.Loop() {
				if _, err := g.FitHyperparams(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
