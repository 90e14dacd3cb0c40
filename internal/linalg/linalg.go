// Package linalg is the linear-algebra kernel under Rafiki's Gaussian-process
// advisor (internal/gp is its only importer): a packed Cholesky factor that
// grows a row per observation and solves for a block of right-hand sides,
// and the textbook dense path the tests hold it to. Stdlib plus amd64
// assembly for the blocked solve, four factorisations side by side
// (FactorLanes) and the exponential (ExpBlock, and RBFBlock, which feeds it
// squared distances), with a portable fallback;
// both factorisations retry with diagonal jitter, the standard remedy for
// near-singular kernel matrices.
//
// The assembly runs on AVX2 and FMA when the CPU has them and computes every
// lane bit for bit as the portable Go does. The gate is set once at init;
// the purego build tag, or any other architecture, keeps the portable loops.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// ErrNotPositiveDefinite is returned when a matrix is not (numerically)
// symmetric positive definite even after jittering.
var ErrNotPositiveDefinite = errors.New("linalg: matrix not positive definite")

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Dot returns the inner product of v and w. Lengths must match. The four
// accumulators are independent, so no add waits for the one before it.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(v); i += 4 {
		a, b := v[i:i+4:i+4], w[i:i+4:i+4] // one bounds check per four elements
		s0 += a[0] * b[0]
		s1 += a[1] * b[1]
		s2 += a[2] * b[2]
		s3 += a[3] * b[3]
	}
	for ; i < len(v); i++ {
		s0 += v[i] * w[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// nextJitter climbs the jitter ladder both factorisations share: 0, then
// 1e-10·max(meanDiag,1) growing 100× per step up to 1e-4·max(meanDiag,1).
func nextJitter(jitter, meanDiag float64) (float64, bool) {
	scale := math.Max(meanDiag, 1)
	if jitter == 0 {
		jitter = 1e-10 * scale
	} else {
		jitter *= 100
	}
	return jitter, jitter <= 1e-4*scale
}

// Block is how many right-hand sides SolveLowerBlock carries per pass, and
// how many values ExpBlock takes.
const Block = 16

// Chol is the Cholesky factor L of a symmetric positive-definite matrix,
// packed by rows (row i: i+1 entries at offset i(i+1)/2) so inner products
// run over contiguous memory. The zero value is an empty factor.
type Chol struct {
	n      int
	l      []float64
	jitter float64 // what Factor had to add to the diagonal
}

// N returns the order of the factored matrix.
func (c *Chol) N() int { return c.n }

func (c *Chol) row(i int) Vector { return c.l[i*(i+1)/2 : i*(i+1)/2+i+1] }

// Append grows the factor by the matrix's next row (n+1 entries, diagonal
// last) in O(n²). Row-wise Cholesky computes row i from rows 0..i alone, so
// this is exactly the row Factor would produce. It returns false and leaves
// the factor unchanged when the new pivot is not positive.
func (c *Chol) Append(row []float64) bool {
	i := c.n
	if len(row) != i+1 {
		panic(fmt.Sprintf("linalg: append of %d entries to a factor of order %d", len(row), i))
	}
	c.l = append(c.l[:i*(i+1)/2], row...)
	li := c.row(i)
	for j := 0; j < i; j++ {
		lj := c.row(j)
		li[j] = (li[j] - li[:j].Dot(lj[:j])) / lj[j]
	}
	pivot := li[i] + c.jitter - li[:i].Dot(li[:i])
	if pivot <= 0 || math.IsNaN(pivot) {
		return false
	}
	li[i] = math.Sqrt(pivot)
	c.n++
	return true
}

// Factor replaces the factor with that of the n×n matrix whose lower
// triangle a holds packed by rows, climbing the jitter ladder like the dense
// Cholesky. On ErrNotPositiveDefinite the factor is left empty.
func (c *Chol) Factor(a []float64, n int) error {
	meanDiag := 0.0
	for i := 0; i < n; i++ {
		meanDiag += a[i*(i+1)/2+i]
	}
	if n > 0 {
		meanDiag /= float64(n)
	}
	for jitter, more := 0.0, true; more; jitter, more = nextJitter(jitter, meanDiag) {
		c.n, c.jitter = 0, jitter
		for i := 0; i < n && c.Append(a[i*(i+1)/2:i*(i+1)/2+i+1]); i++ {
		}
		if c.n == n {
			return nil
		}
	}
	c.n, c.jitter = 0, 0
	return ErrNotPositiveDefinite
}

// Lanes is how many matrices FactorLanes factors side by side.
const Lanes = 4

// FactorLanes overwrites a, Lanes n×n matrices whose lower triangles are
// packed by rows as Factor takes them and interleaved by lane (entry k of
// lane g at a[k*Lanes+g]), with their Cholesky factors, and returns the lanes
// it factored, bit g for lane g. Each such lane is bit for bit the factor
// Factor settles on at its first, unjittered attempt; SetLane copies it out.
// The other lanes are left undefined and are Factor's to take alone, jitter
// ladder and all: those whose pivot was not positive, and every lane where
// the vector kernels are off.
func FactorLanes(a []float64, n int) (ok uint) {
	if !useVector {
		return 0
	}
	a = a[:n*(n+1)/2*Lanes]
	ok = 1<<Lanes - 1
	for i := 0; i < n && ok != 0; i++ {
		cholRowLanesAVX2(&a[0], i) // leaves the row's pivots on its diagonal
		pivots := (*[Lanes]float64)(a[(i*(i+1)/2+i)*Lanes:])
		for g, pivot := range pivots {
			if pivot <= 0 || math.IsNaN(pivot) {
				ok &^= 1 << g
			}
			pivots[g] = math.Sqrt(pivot)
		}
	}
	return ok
}

// SetLane replaces the factor with lane g of the order-n factors
// FactorLanes left in a, a lane it returned as factored.
func (c *Chol) SetLane(a []float64, n, g int) {
	c.n, c.jitter = n, 0
	c.l = slices.Grow(c.l[:0], n*(n+1)/2)[:n*(n+1)/2]
	for k := range c.l {
		c.l[k] = a[k*Lanes+g]
	}
}

// LogDiagSum returns Σ log L[i][i], half the log-determinant of the matrix.
func (c *Chol) LogDiagSum() float64 {
	s := 0.0
	for i := 0; i < c.n; i++ {
		s += math.Log(c.l[i*(i+1)/2+i])
	}
	return s
}

// SolveLower solves L·x = b in place by forward substitution.
func (c *Chol) SolveLower(x Vector) {
	for i := range x[:c.n] {
		li := c.row(i)
		x[i] = (x[i] - li[:i].Dot(x[:i])) / li[i]
	}
}

// SolveUpperT solves Lᵀ·x = b in place by back substitution, column-oriented
// so that it too walks rows of L.
func (c *Chol) SolveUpperT(x Vector) {
	for i := len(x[:c.n]) - 1; i >= 0; i-- {
		li := c.row(i)
		x[i] /= li[i]
		for k, l := range li[:i] {
			x[k] -= l * x[i]
		}
	}
}

// SolveLowerBlock solves L·X = B in place for Block right-hand sides at once,
// entry i of right-hand side r at v[i*Block+r]. Each row of L is loaded once
// per block, and the Block running sums are independent of one another; each
// is accumulated in the order the dense SolveLower uses, whichever path runs.
func (c *Chol) SolveLowerBlock(v []float64) {
	if c.n == 0 {
		return
	}
	_ = v[c.n*Block-1] // the kernel reads and writes n·Block entries
	if useVector {
		solveLowerBlockAVX2(&c.l[0], &v[0], c.n)
		return
	}
	c.solveLowerHalf(v, 0)
	c.solveLowerHalf(v, Block/2)
}

// solveLowerHalf is the portable SolveLowerBlock on the eight right-hand
// sides from lane off.
func (c *Chol) solveLowerHalf(v []float64, off int) {
	for i := 0; i < c.n; i++ {
		li := c.row(i)
		vi := (*[Block / 2]float64)(v[i*Block+off:])
		a0, a1, a2, a3, a4, a5, a6, a7 := vi[0], vi[1], vi[2], vi[3], vi[4], vi[5], vi[6], vi[7]
		for k, l := range li[:i] {
			vk := (*[Block / 2]float64)(v[k*Block+off:])
			a0 -= l * vk[0]
			a1 -= l * vk[1]
			a2 -= l * vk[2]
			a3 -= l * vk[3]
			a4 -= l * vk[4]
			a5 -= l * vk[5]
			a6 -= l * vk[6]
			a7 -= l * vk[7]
		}
		d := li[i]
		*vi = [Block / 2]float64{a0 / d, a1 / d, a2 / d, a3 / d, a4 / d, a5 / d, a6 / d, a7 / d}
	}
}

// ExpBlock sets each v[c] to math.Exp(v[c]), bit for bit. The vector kernel
// is a lane-wise port of math.Exp's own AVX+FMA path, which math.Exp takes on
// every CPU the gate admits; it covers arguments in [-708, 0], and lanes
// outside that range (subnormal or zero results, positive arguments, NaN)
// are handed to math.Exp itself.
func ExpBlock(v *[Block]float64) {
	if useVector {
		expLanes(v, expBlockAVX2(v))
		return
	}
	for c, x := range v {
		v[c] = math.Exp(x)
	}
}

// expLanes sets v[c] to math.Exp(v[c]) for each bit c set in lanes: the
// lanes the vector kernels leave to math.Exp.
func expLanes(v *[Block]float64, lanes uint32) {
	for ; lanes != 0; lanes &= lanes - 1 {
		c := bits.TrailingZeros32(lanes)
		v[c] = math.Exp(v[c])
	}
}

// RBFBlock sets row[c] = exp(−d²/den) for each of the Block points held by
// coordinate in cols (coordinate j of point c at cols[j*Block+c]), d² the
// squared distance between x and the point summed coordinate by coordinate:
// what an RBF kernel computes one point at a time, bit for bit, followed by
// ExpBlock's exponential.
func RBFBlock(row *[Block]float64, x, cols []float64, den float64) {
	cols = cols[:len(x)*Block]
	if useVector && len(x) > 0 {
		expLanes(row, rbfBlockAVX2(row, &x[0], len(x), &cols[0], den))
		return
	}
	*row = [Block]float64{}
	for j, a := range x {
		for c, b := range (*[Block]float64)(cols[j*Block:]) {
			d := a - b
			row[c] += d * d
		}
	}
	for c, d2 := range row {
		row[c] = -d2 / den
	}
	ExpBlock(row)
}

// Matrix is a dense row-major matrix. It and the functions below are the
// textbook path, kept as the reference the tests hold the packed factor to.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Cholesky computes the lower-triangular L with L*Lᵀ = m for a symmetric
// positive-definite m. If the factorization fails it retries with growing
// diagonal jitter (up to 1e-4·mean-diagonal); beyond that it returns
// ErrNotPositiveDefinite.
func (m *Matrix) Cholesky() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: cholesky of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	meanDiag := 0.0
	for i := 0; i < n; i++ {
		meanDiag += m.At(i, i)
	}
	if n > 0 {
		meanDiag /= float64(n)
	}
	for jitter, more := 0.0, true; more; jitter, more = nextJitter(jitter, meanDiag) {
		if l, ok := choleskyAttempt(m, jitter); ok {
			return l, nil
		}
	}
	return nil, ErrNotPositiveDefinite
}

func choleskyAttempt(m *Matrix, jitter float64) (*Matrix, bool) {
	n := m.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := m.At(i, j)
			if i == j {
				sum += jitter
			}
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, false
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, true
}

// SolveLower solves L*x = b for lower-triangular L by forward substitution.
func SolveLower(l *Matrix, b Vector) Vector {
	n := l.Rows
	if len(b) != n {
		panic("linalg: solveLower shape mismatch")
	}
	x := NewVector(n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l.At(i, k) * x[k]
		}
		x[i] = sum / l.At(i, i)
	}
	return x
}

// SolveUpperT solves Lᵀ*x = b for lower-triangular L by back substitution.
func SolveUpperT(l *Matrix, b Vector) Vector {
	n := l.Rows
	if len(b) != n {
		panic("linalg: solveUpperT shape mismatch")
	}
	x := NewVector(n)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for k := i + 1; k < n; k++ {
			sum -= l.At(k, i) * x[k]
		}
		x[i] = sum / l.At(i, i)
	}
	return x
}

// CholSolve solves m*x = b given the Cholesky factor L of m.
func CholSolve(l *Matrix, b Vector) Vector {
	return SolveUpperT(l, SolveLower(l, b))
}
