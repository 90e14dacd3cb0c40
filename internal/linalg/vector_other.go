//go:build !amd64 || purego

package linalg

// useVector is false where there are no vector kernels; the portable loops
// run instead.
var useVector = false

func solveLowerBlockAVX2(l, v *float64, n int) { panic("linalg: no vector kernels in this build") }

func cholRowLanesAVX2(l *float64, i int) { panic("linalg: no vector kernels in this build") }

func expBlockAVX2(v *[Block]float64) uint32 { panic("linalg: no vector kernels in this build") }

func rbfBlockAVX2(row *[Block]float64, x *float64, dim int, cols *float64, den float64) uint32 {
	panic("linalg: no vector kernels in this build")
}
