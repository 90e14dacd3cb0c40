//go:build !purego

package linalg

import "math"

// useVector gates the AVX2 kernels. It is set once, at init, and never
// configured: on when the CPU has AVX2 and FMA with the YMM state enabled by
// the OS, and the exp kernel agrees with math.Exp on arguments where
// math.Exp's FMA and non-FMA paths round differently. The second test keeps
// the kernels off when GODEBUG (cpu.fma=off, cpu.avx=off) has moved math.Exp
// off the FMA path the kernel ports.
var useVector = hasAVX2FMA() && expMatchesMath()

func expMatchesMath() bool {
	probe := [Block]float64{
		-2.375, -3.75, -5.375, -5.75, -6.625, -6.75, -8.625, -11.25,
		-12.125, -12.875, -13.5, -16.125, -17, -19.25, -19.75, -20.5,
	}
	v := probe
	if expBlockAVX2(&v) != 0 {
		return false
	}
	for c, x := range probe {
		if v[c] != math.Exp(x) {
			return false
		}
	}
	return true
}

func hasAVX2FMA() bool

//go:noescape
func solveLowerBlockAVX2(l, v *float64, n int)

//go:noescape
func cholRowLanesAVX2(l *float64, i int)

//go:noescape
func expBlockAVX2(v *[Block]float64) (outside uint32)

//go:noescape
func rbfBlockAVX2(row *[Block]float64, x *float64, dim int, cols *float64, den float64) (outside uint32)
