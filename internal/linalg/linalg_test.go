package linalg

import (
	"errors"
	"math"
	"testing"

	"rafiki/internal/sim"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// randomSPD builds A = Bᵀ B + n·I, which is symmetric positive definite.
func randomSPD(g *sim.RNG, n int) *Matrix {
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = g.Normal(0, 1)
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				a.Data[i*n+j] += b.At(k, i) * b.At(k, j)
			}
		}
		a.Data[i*n+i] += float64(n)
	}
	return a
}

func mulVec(a *Matrix, x Vector) Vector {
	out := NewVector(a.Rows)
	for i := range out {
		for j := range x {
			out[i] += a.At(i, j) * x[j]
		}
	}
	return out
}

// packLower returns the lower triangle of a packed by rows, as Chol.Factor
// takes it.
func packLower(a *Matrix) []float64 {
	var p []float64
	for i := 0; i < a.Rows; i++ {
		p = append(p, a.Data[i*a.Cols:i*a.Cols+i+1]...)
	}
	return p
}

// unpack returns the factor as a dense lower-triangular matrix.
func unpack(c *Chol) *Matrix {
	l := NewMatrix(c.N(), c.N())
	for i := 0; i < c.N(); i++ {
		copy(l.Data[i*l.Cols:], c.row(i))
	}
	return l
}

// TestVectorDot covers every remainder of the four-way unrolled loop.
func TestVectorDot(t *testing.T) {
	if got := (Vector{1, 2, 3}).Dot(Vector{4, 5, 6}); got != 32 {
		t.Fatalf("dot = %v, want 32", got)
	}
	g := sim.NewRNG(10)
	for n := 0; n <= 13; n++ {
		v, w, want := NewVector(n), NewVector(n), 0.0
		for i := range v {
			v[i], w[i] = g.Normal(0, 1), g.Normal(0, 1)
			want += v[i] * w[i]
		}
		if got := v.Dot(w); !almostEq(got, want, 1e-12) {
			t.Fatalf("n=%d: dot = %v, want %v", n, got, want)
		}
	}
}

func TestVectorDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestCholeskyReconstruction(t *testing.T) {
	g := sim.NewRNG(12)
	for trial := 0; trial < 25; trial++ {
		n := 1 + g.Intn(10)
		a := randomSPD(g, n)
		l, err := a.Cholesky()
		if err != nil {
			t.Fatalf("cholesky failed on SPD matrix: %v", err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				recon := 0.0
				for k := 0; k < n; k++ {
					recon += l.At(i, k) * l.At(j, k)
				}
				if !almostEq(recon, a.At(i, j), 1e-8) {
					t.Fatalf("L*Lt != A at (%d,%d): %v vs %v", i, j, recon, a.At(i, j))
				}
				if j > i && l.At(i, j) != 0 {
					t.Fatal("cholesky factor not lower triangular")
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := fromRows([][]float64{{1, 0}, {0, -5}})
	if _, err := a.Cholesky(); err == nil {
		t.Fatal("expected failure on indefinite matrix")
	}
	b := fromRows([][]float64{{1, 2, 3}})
	if _, err := b.Cholesky(); err == nil {
		t.Fatal("expected failure on non-square matrix")
	}
	var c Chol
	if err := c.Factor(packLower(a), 2); !errors.Is(err, ErrNotPositiveDefinite) || c.N() != 0 {
		t.Fatalf("packed factor of an indefinite matrix: err %v, order %d", err, c.N())
	}
}

// nearSingular is a rank-deficient Gram matrix: duplicate kernel rows, as
// happens when the Bayesian optimizer revisits nearly identical trials.
func nearSingular() *Matrix {
	return fromRows([][]float64{
		{1, 1, 0.5},
		{1, 1, 0.5},
		{0.5, 0.5, 1},
	})
}

func TestCholeskyJitterRecoversNearSingular(t *testing.T) {
	if _, err := nearSingular().Cholesky(); err != nil {
		t.Fatalf("jittered cholesky should recover: %v", err)
	}
}

func TestSolveRoundTrip(t *testing.T) {
	g := sim.NewRNG(13)
	for trial := 0; trial < 25; trial++ {
		n := 1 + g.Intn(10)
		a := randomSPD(g, n)
		x := NewVector(n)
		for i := range x {
			x[i] = g.Normal(0, 2)
		}
		l, err := a.Cholesky()
		if err != nil {
			t.Fatal(err)
		}
		got := CholSolve(l, mulVec(a, x))
		for i := range x {
			if !almostEq(got[i], x[i], 1e-6) {
				t.Fatalf("solve mismatch at %d: %v vs %v", i, got[i], x[i])
			}
		}
	}
}

func TestTriangularSolves(t *testing.T) {
	l := fromRows([][]float64{{2, 0}, {1, 3}})
	x := SolveLower(l, Vector{4, 11})
	if !almostEq(x[0], 2, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("solveLower = %v", x)
	}
	// Lᵀ x = b  with Lᵀ = [[2,1],[0,3]]; b = [7,9] -> x = [2,3]
	y := SolveUpperT(l, Vector{7, 9})
	if !almostEq(y[0], 2, 1e-12) || !almostEq(y[1], 3, 1e-12) {
		t.Fatalf("solveUpperT = %v", y)
	}
}

// TestCholMatchesDense holds the packed factor and its solves to the
// textbook path on random SPD matrices, and on the near-singular one where
// both must climb the jitter ladder to the same rung.
func TestCholMatchesDense(t *testing.T) {
	g := sim.NewRNG(15)
	mats := []*Matrix{nearSingular()}
	for n := 1; n <= 24; n++ {
		mats = append(mats, randomSPD(g, n))
	}
	for _, a := range mats {
		n := a.Rows
		dense, err := a.Cholesky()
		if err != nil {
			t.Fatal(err)
		}
		var c Chol
		if err := c.Factor(packLower(a), n); err != nil {
			t.Fatal(err)
		}
		logDiag := 0.0
		for i := 0; i < n; i++ {
			logDiag += math.Log(dense.At(i, i))
		}
		if !almostEq(c.LogDiagSum(), logDiag, 1e-8) {
			t.Fatalf("n=%d: log-diagonal sum %v, dense %v", n, c.LogDiagSum(), logDiag)
		}
		packed := unpack(&c)
		for i := range dense.Data {
			if !almostEq(packed.Data[i], dense.Data[i], 1e-8*(1+math.Abs(dense.Data[i]))) {
				t.Fatalf("n=%d: factor entry %d is %v, dense %v", n, i, packed.Data[i], dense.Data[i])
			}
		}
		b := NewVector(n)
		for i := range b {
			b[i] = g.Normal(0, 1)
		}
		// Against the same factor the solves must agree to rounding.
		lo, up := append(Vector(nil), b...), append(Vector(nil), b...)
		c.SolveLower(lo)
		c.SolveUpperT(up)
		wantLo, wantUp := SolveLower(packed, b), SolveUpperT(packed, b)
		for i := range b {
			if !almostEq(lo[i], wantLo[i], 1e-10*(1+math.Abs(wantLo[i]))) || !almostEq(up[i], wantUp[i], 1e-10*(1+math.Abs(wantUp[i]))) {
				t.Fatalf("n=%d: solves at %d: lower %v vs %v, upper %v vs %v", n, i, lo[i], wantLo[i], up[i], wantUp[i])
			}
		}
	}
}

// TestCholAppendIsTheNextRowOfFactor: growing the factor a row at a time
// gives, bit for bit, the factor of the whole matrix; a row whose pivot is
// not positive is refused and leaves the factor as it was.
func TestCholAppendIsTheNextRowOfFactor(t *testing.T) {
	g := sim.NewRNG(16)
	a := randomSPD(g, 20)
	p := packLower(a)
	var grown, whole Chol
	for n := 1; n <= a.Rows; n++ {
		if !grown.Append(p[n*(n-1)/2 : n*(n+1)/2]) {
			t.Fatalf("append of row %d refused", n-1)
		}
		if err := whole.Factor(p, n); err != nil {
			t.Fatal(err)
		}
		for i, v := range whole.l[:n*(n+1)/2] {
			if grown.l[i] != v {
				t.Fatalf("order %d: entry %d grown %v, from scratch %v", n, i, grown.l[i], v)
			}
		}
	}
	before := append([]float64(nil), grown.l[:20*21/2]...)
	// A copy of the last row and column with a smaller diagonal: pivot ≈ −1.
	bad := append(append([]float64(nil), p[19*20/2:]...), a.At(19, 19)-1)
	if grown.Append(bad) || grown.N() != 20 {
		t.Fatalf("append of a row with a negative pivot accepted (order %d)", grown.N())
	}
	for i, v := range before {
		if grown.l[i] != v {
			t.Fatalf("refused append changed entry %d", i)
		}
	}
}

// haveVector is the gate as the CPU set it, before any test flips it.
var haveVector = useVector

// bothPaths runs f once on the portable loops and once on the vector
// kernels, restoring the gate afterwards. The vector half is skipped where
// the gate is off.
func bothPaths(t *testing.T, f func(t *testing.T)) {
	t.Cleanup(func() { useVector = haveVector })
	t.Run("portable", func(t *testing.T) {
		useVector = false
		f(t)
	})
	t.Run("vector", func(t *testing.T) {
		if !haveVector {
			t.Skip("vector kernels off: not amd64, purego build, no AVX2+FMA, or GODEBUG moved math.Exp off FMA")
		}
		useVector = true
		f(t)
	})
}

// TestSolveLowerBlock: every lane of the blocked solve is the dense forward
// substitution on that right-hand side, operation for operation and bit for
// bit, on either path, so the two paths agree with each other too.
func TestSolveLowerBlock(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		g := sim.NewRNG(17)
		for _, n := range []int{0, 1, 2, 7, 15, 16, 17, 33, 150} {
			var c Chol
			if err := c.Factor(packLower(randomSPD(g, n)), n); err != nil {
				t.Fatal(err)
			}
			v := make([]float64, n*Block)
			for i := range v {
				v[i] = g.Normal(0, 1)
			}
			var want [Block]Vector
			for r := range want {
				b := NewVector(n)
				for i := range b {
					b[i] = v[i*Block+r]
				}
				want[r] = SolveLower(unpack(&c), b)
			}
			c.SolveLowerBlock(v)
			for i := 0; i < n; i++ {
				for r := 0; r < Block; r++ {
					if math.Float64bits(v[i*Block+r]) != math.Float64bits(want[r][i]) {
						t.Fatalf("n=%d lane %d entry %d: %v, dense %v", n, r, i, v[i*Block+r], want[r][i])
					}
				}
			}
		}
	})
}

// TestExpBlockMatchesMathExp holds ExpBlock to math.Exp bit for bit over
// arguments inside and around the vector kernel's range, the special values
// it hands back to math.Exp among them.
func TestExpBlockMatchesMathExp(t *testing.T) {
	g := sim.NewRNG(19)
	args := []float64{
		math.Copysign(0, -1), 0, -708, -708.39, -745.13, -745.14, -800, -1e300,
		math.Inf(-1), math.Inf(1), math.NaN(), 1, 709.78, 710, -1e-320, -5e-324,
		math.Nextafter(-708, 0), math.Nextafter(-708, -1000),
	}
	const draws = 1 << 20
	for len(args) < draws {
		switch len(args) % 3 {
		case 0:
			args = append(args, g.Uniform(-800, 0))
		case 1:
			args = append(args, -50*(-math.Log(1-g.Float64()))) // −Exp·50
		default:
			args = append(args, math.Float64frombits(uint64(g.Int63())|1<<63)) // any negative bits
		}
	}
	bothPaths(t, func(t *testing.T) {
		var v [Block]float64
		for i := 0; i+Block <= len(args); i += Block {
			copy(v[:], args[i:])
			ExpBlock(&v)
			for c, got := range v {
				x := args[i+c]
				want := math.Exp(x)
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("exp(%v) [bits %#x] = %v [%#x], math.Exp %v [%#x]",
						x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	})
}

// TestRBFBlock: each lane is exp(−d²/den) for d² summed coordinate by
// coordinate, as a kernel computes it one point at a time, on either path;
// the short length scale sends most lanes below the vector range.
func TestRBFBlock(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		g := sim.NewRNG(23)
		for _, dim := range []int{0, 1, 2, 7} {
			for _, den := range []float64{2 * 0.2 * 0.2, 2 * 0.01 * 0.01, 2} {
				x := make([]float64, dim)
				cols := make([]float64, dim*Block)
				for j := range x {
					x[j] = g.Float64()
				}
				for i := range cols {
					cols[i] = g.Float64()
				}
				if dim > 0 {
					cols[0] = math.NaN()
				}
				var row [Block]float64
				RBFBlock(&row, x, cols, den)
				for c, got := range row {
					d2 := 0.0
					for j := range x {
						d := x[j] - cols[j*Block+c]
						d2 += d * d
					}
					want := math.Exp(-d2 / den)
					if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
						t.Fatalf("dim %d den %v lane %d: %v, want %v", dim, den, c, got, want)
					}
				}
			}
		}
	})
}

// TestFactorLanesMatchesAppend: every lane FactorLanes factors is, bit for
// bit, the factor Append builds row by row without jitter, and the lanes it
// leaves out are exactly those where Append refuses a row — a negative pivot,
// a NaN entry, or a duplicated row if its pivot rounds to zero or below — with
// the rows before that one, and the refused row's off-diagonal entries, as
// Append computed them. Where the vector kernels are off it factors no lane.
func TestFactorLanesMatchesAppend(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		g := sim.NewRNG(29)
		spoils := []string{"none", "negative", "duplicate", "nan", "all-negative"}
		for _, n := range []int{1, 2, 3, 4, 5, 8, 9, 31, 64} {
			for _, spoil := range spoils {
				var packed [Lanes][]float64
				var refused [Lanes]bool // lanes spoiled so that Append must refuse a row
				a := make([]float64, n*(n+1)/2*Lanes)
				for lane := range packed {
					m := randomSPD(g, n)
					r := min((n+lane)/2, n-1) // the row a spoil rewrites
					switch {
					case r == 0:
					case spoil == "negative" && lane == 1, spoil == "all-negative":
						m.Set(r, r, -1)
						refused[lane] = true
					case spoil == "duplicate" && lane == 2:
						for j := 0; j < n; j++ {
							m.Set(r, j, m.At(r-1, j))
							m.Set(j, r, m.At(j, r-1))
						}
						m.Set(r, r, m.At(r-1, r-1))
					case spoil == "nan" && lane == 3:
						m.Set(r, 0, math.NaN())
						refused[lane] = true
					}
					packed[lane] = packLower(m)
					for k, v := range packed[lane] {
						a[k*Lanes+lane] = v
					}
				}
				ok := FactorLanes(a, n)
				if !useVector {
					if ok != 0 {
						t.Fatalf("n=%d %s: portable path factored lanes %b", n, spoil, ok)
					}
					continue
				}
				for lane, p := range packed {
					var want Chol
					for i := 0; i < n && want.Append(p[i*(i+1)/2:i*(i+1)/2+i+1]); i++ {
					}
					if refused[lane] && want.N() == n {
						t.Fatalf("n=%d %s lane %d: Append took the spoiled row", n, spoil, lane)
					}
					if got := ok>>lane&1 == 1; got != (want.N() == n) {
						t.Fatalf("n=%d %s lane %d: factored %v, Append took %d of %d rows", n, spoil, lane, got, want.N(), n)
					}
					f := want.N() // rows 0..f-1 and row f's off-diagonal entries
					if f < n {
						for k := 0; k < f*(f+1)/2+f; k++ {
							if math.Float64bits(a[k*Lanes+lane]) != math.Float64bits(want.l[k]) {
								t.Fatalf("n=%d %s lane %d: entry %d is %v, Append %v", n, spoil, lane, k, a[k*Lanes+lane], want.l[k])
							}
						}
						continue
					}
					var c Chol
					c.SetLane(a, n, lane)
					if c.N() != n || c.jitter != 0 || len(c.l) != n*(n+1)/2 {
						t.Fatalf("n=%d %s lane %d: SetLane gave order %d, jitter %v, %d entries", n, spoil, lane, c.N(), c.jitter, len(c.l))
					}
					for k, v := range want.l[:n*(n+1)/2] {
						if math.Float64bits(c.l[k]) != math.Float64bits(v) {
							t.Fatalf("n=%d %s lane %d: entry %d is %v, Append %v", n, spoil, lane, k, c.l[k], v)
						}
					}
				}
			}
		}
	})
}
