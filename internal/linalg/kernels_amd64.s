//go:build !purego

#include "textflag.h"

// func solveLowerBlockAVX2(l, v *float64, n int)
//
// Forward substitution L·X = B for Block = 16 right-hand sides, entry i of
// right-hand side r at v[i*16+r], L packed by rows. Each row keeps its 16
// running sums in four YMM accumulators and subtracts l[i][k]·v[k] as a
// multiply then a subtract, never a fused multiply-subtract, so every lane
// rounds exactly as the scalar loop does.
TEXT ·solveLowerBlockAVX2(SB), NOSPLIT, $0-24
	MOVQ l+0(FP), SI   // row i of the packed factor
	MOVQ v+8(FP), DI   // v[0]
	MOVQ n+16(FP), CX
	XORQ AX, AX        // i
	MOVQ DI, BX        // &v[i*16]

rows:
	CMPQ    AX, CX
	JGE     done
	VMOVUPD 0(BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	MOVQ    DI, R8     // &v[k*16]
	XORQ    DX, DX     // k

cols:
	CMPQ         DX, AX
	JGE          pivot
	VBROADCASTSD (SI)(DX*8), Y4
	VMULPD       0(R8), Y4, Y5
	VMULPD       32(R8), Y4, Y6
	VMULPD       64(R8), Y4, Y7
	VMULPD       96(R8), Y4, Y8
	VSUBPD       Y5, Y0, Y0
	VSUBPD       Y6, Y1, Y1
	VSUBPD       Y7, Y2, Y2
	VSUBPD       Y8, Y3, Y3
	ADDQ         $128, R8
	INCQ         DX
	JMP          cols

pivot:
	VBROADCASTSD (SI)(AX*8), Y4
	VDIVPD       Y4, Y0, Y0
	VDIVPD       Y4, Y1, Y1
	VDIVPD       Y4, Y2, Y2
	VDIVPD       Y4, Y3, Y3
	VMOVUPD      Y0, 0(BX)
	VMOVUPD      Y1, 32(BX)
	VMOVUPD      Y2, 64(BX)
	VMOVUPD      Y3, 96(BX)
	LEAQ         8(SI)(AX*8), SI // row i+1 starts i+1 entries later
	ADDQ         $128, BX
	INCQ         AX
	JMP          rows

done:
	VZEROUPPER
	RET

// The constants of math/exp_amd64.s, in its order.
DATA expdata<>+0(SB)/8, $0.5
DATA expdata<>+8(SB)/8, $1.0
DATA expdata<>+16(SB)/8, $2.0
DATA expdata<>+24(SB)/8, $1.6666666666666666667e-1
DATA expdata<>+32(SB)/8, $4.1666666666666666667e-2
DATA expdata<>+40(SB)/8, $8.3333333333333333333e-3
DATA expdata<>+48(SB)/8, $1.3888888888888888889e-3
DATA expdata<>+56(SB)/8, $1.9841269841269841270e-4
DATA expdata<>+64(SB)/8, $2.4801587301587301587e-5
DATA expdata<>+72(SB)/8, $1.4426950408889634073599246810018920     // log2(e)
DATA expdata<>+80(SB)/8, $0.69314718055966295651160180568695068359375 // ln 2, upper half
DATA expdata<>+88(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // ln 2, lower half
DATA expdata<>+96(SB)/8, $0.0625
DATA expdata<>+104(SB)/8, $-708.0 // lower end of the range this kernel handles
DATA expdata<>+112(SB)/8, $1023   // exponent bias
DATA expdata<>+120(SB)/8, $0x8000000000000000 // sign bit
GLOBL expdata<>(SB), RODATA|NOPTR, $128

// Applies one broadcast constant to the four groups of lanes.
#define ALL4(op, c) \
	VBROADCASTSD c, Y15; \
	op Y15, Y0, Y4; \
	op Y15, Y1, Y5; \
	op Y15, Y2, Y6; \
	op Y15, Y3, Y7

// func expBlockAVX2(v *[16]float64) (outside uint32)
//
// Replaces each v[c] in [-708, 0] with exp(v[c]); lanes outside the range,
// NaN among them, are left as they were and reported in outside, bit c for
// v[c].
TEXT ·expBlockAVX2(SB), NOSPLIT, $0-12
	MOVQ v+0(FP), DI
	CALL exp16<>(SB)
	MOVL AX, outside+8(FP)
	VZEROUPPER
	RET

// func rbfBlockAVX2(row *[16]float64, x *float64, dim int, cols *float64, den float64) (outside uint32)
//
// Sets row[c] = exp(-d²/den), d² the squared distance between x and point c
// of cols (coordinate j of point c at cols[j*16+c]), accumulated coordinate
// by coordinate as (x[j]-p[j])² with a multiply then an add, as the scalar
// loop does. Lanes whose argument is outside [-708, 0] hold the argument and
// are reported in outside, as expBlockAVX2 reports them.
TEXT ·rbfBlockAVX2(SB), NOSPLIT, $0-44
	MOVQ   row+0(FP), DI
	MOVQ   x+8(FP), SI
	MOVQ   dim+16(FP), CX
	MOVQ   cols+24(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	TESTQ  CX, CX
	JZ     args

coords:
	VBROADCASTSD (SI), Y4
	VSUBPD       0(DX), Y4, Y5
	VSUBPD       32(DX), Y4, Y6
	VSUBPD       64(DX), Y4, Y7
	VSUBPD       96(DX), Y4, Y8
	VMULPD       Y5, Y5, Y5
	VMULPD       Y6, Y6, Y6
	VMULPD       Y7, Y7, Y7
	VMULPD       Y8, Y8, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, SI
	ADDQ         $128, DX
	DECQ         CX
	JNZ          coords

args:
	// row = -d² / den
	VBROADCASTSD expdata<>+120(SB), Y4
	VBROADCASTSD den+32(FP), Y5
	VXORPD       Y4, Y0, Y0
	VXORPD       Y4, Y1, Y1
	VXORPD       Y4, Y2, Y2
	VXORPD       Y4, Y3, Y3
	VDIVPD       Y5, Y0, Y0
	VDIVPD       Y5, Y1, Y1
	VDIVPD       Y5, Y2, Y2
	VDIVPD       Y5, Y3, Y3
	VMOVUPD      Y0, 0(DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, 64(DI)
	VMOVUPD      Y3, 96(DI)
	CALL         exp16<>(SB)
	MOVL         AX, outside+40(FP)
	VZEROUPPER
	RET

// exp16 replaces the 16 values at DI that lie in [-708, 0] with their
// exponential, computed exactly as math.Exp's AVX+FMA path computes it, four
// lanes per YMM register and all 16 in lockstep: k = round(x·log2 e),
// r = (x − k·ln2) / 16 with ln 2 in two parts, the Taylor polynomial by
// Horner, four squarings back up and a multiply by 2^k. The other lanes keep
// their value; AX returns their mask, bit c for lane c. Clobbers BX and
// Y0–Y15.
TEXT exp16<>(SB), NOSPLIT|NOFRAME, $0-0
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3

	// k = round(x·log2 e), as int32 in X8–X11 and as float64 in Y4–Y7.
	ALL4(VMULPD, expdata<>+72(SB))
	VCVTPD2DQY Y4, X8
	VCVTPD2DQY Y5, X9
	VCVTPD2DQY Y6, X10
	VCVTPD2DQY Y7, X11
	VCVTDQ2PD  X8, Y4
	VCVTDQ2PD  X9, Y5
	VCVTDQ2PD  X10, Y6
	VCVTDQ2PD  X11, Y7

	// r = (x − k·ln2u − k·ln2l) / 16 in Y0–Y3.
	VBROADCASTSD expdata<>+80(SB), Y15
	VFNMADD231PD Y15, Y4, Y0
	VFNMADD231PD Y15, Y5, Y1
	VFNMADD231PD Y15, Y6, Y2
	VFNMADD231PD Y15, Y7, Y3
	VBROADCASTSD expdata<>+88(SB), Y15
	VFNMADD231PD Y15, Y4, Y0
	VFNMADD231PD Y15, Y5, Y1
	VFNMADD231PD Y15, Y6, Y2
	VFNMADD231PD Y15, Y7, Y3
	VBROADCASTSD expdata<>+96(SB), Y15
	VMULPD       Y15, Y0, Y0
	VMULPD       Y15, Y1, Y1
	VMULPD       Y15, Y2, Y2
	VMULPD       Y15, Y3, Y3

	// p = the Taylor polynomial at r by Horner, in Y4–Y7.
	VBROADCASTSD expdata<>+64(SB), Y4
	VMOVAPD      Y4, Y5
	VMOVAPD      Y4, Y6
	VMOVAPD      Y4, Y7
	VBROADCASTSD expdata<>+56(SB), Y15
	VFMADD213PD  Y15, Y0, Y4
	VFMADD213PD  Y15, Y1, Y5
	VFMADD213PD  Y15, Y2, Y6
	VFMADD213PD  Y15, Y3, Y7
	VBROADCASTSD expdata<>+48(SB), Y15
	VFMADD213PD  Y15, Y0, Y4
	VFMADD213PD  Y15, Y1, Y5
	VFMADD213PD  Y15, Y2, Y6
	VFMADD213PD  Y15, Y3, Y7
	VBROADCASTSD expdata<>+40(SB), Y15
	VFMADD213PD  Y15, Y0, Y4
	VFMADD213PD  Y15, Y1, Y5
	VFMADD213PD  Y15, Y2, Y6
	VFMADD213PD  Y15, Y3, Y7
	VBROADCASTSD expdata<>+32(SB), Y15
	VFMADD213PD  Y15, Y0, Y4
	VFMADD213PD  Y15, Y1, Y5
	VFMADD213PD  Y15, Y2, Y6
	VFMADD213PD  Y15, Y3, Y7
	VBROADCASTSD expdata<>+24(SB), Y15
	VFMADD213PD  Y15, Y0, Y4
	VFMADD213PD  Y15, Y1, Y5
	VFMADD213PD  Y15, Y2, Y6
	VFMADD213PD  Y15, Y3, Y7
	VBROADCASTSD expdata<>+0(SB), Y15
	VFMADD213PD  Y15, Y0, Y4
	VFMADD213PD  Y15, Y1, Y5
	VFMADD213PD  Y15, Y2, Y6
	VFMADD213PD  Y15, Y3, Y7
	VBROADCASTSD expdata<>+8(SB), Y15
	VFMADD213PD  Y15, Y0, Y4
	VFMADD213PD  Y15, Y1, Y5
	VFMADD213PD  Y15, Y2, Y6
	VFMADD213PD  Y15, Y3, Y7

	// r = r·p, then r = (r+2)·r three times and (r+2)·r + 1 once.
	VMULPD Y4, Y0, Y0
	VMULPD Y5, Y1, Y1
	VMULPD Y6, Y2, Y2
	VMULPD Y7, Y3, Y3
	ALL4(VADDPD, expdata<>+16(SB))
	VMULPD Y4, Y0, Y0
	VMULPD Y5, Y1, Y1
	VMULPD Y6, Y2, Y2
	VMULPD Y7, Y3, Y3
	ALL4(VADDPD, expdata<>+16(SB))
	VMULPD Y4, Y0, Y0
	VMULPD Y5, Y1, Y1
	VMULPD Y6, Y2, Y2
	VMULPD Y7, Y3, Y3
	ALL4(VADDPD, expdata<>+16(SB))
	VMULPD Y4, Y0, Y0
	VMULPD Y5, Y1, Y1
	VMULPD Y6, Y2, Y2
	VMULPD Y7, Y3, Y3
	ALL4(VADDPD, expdata<>+16(SB))
	VBROADCASTSD expdata<>+8(SB), Y15
	VFMADD213PD  Y15, Y4, Y0
	VFMADD213PD  Y15, Y5, Y1
	VFMADD213PD  Y15, Y6, Y2
	VFMADD213PD  Y15, Y7, Y3

	// Multiply by 2^k, built as the bits (k+1023)<<52.
	VPMOVSXDQ    X8, Y4
	VPMOVSXDQ    X9, Y5
	VPMOVSXDQ    X10, Y6
	VPMOVSXDQ    X11, Y7
	VPBROADCASTQ expdata<>+112(SB), Y15
	VPADDQ       Y15, Y4, Y4
	VPADDQ       Y15, Y5, Y5
	VPADDQ       Y15, Y6, Y6
	VPADDQ       Y15, Y7, Y7
	VPSLLQ       $52, Y4, Y4
	VPSLLQ       $52, Y5, Y5
	VPSLLQ       $52, Y6, Y6
	VPSLLQ       $52, Y7, Y7
	VMULPD       Y4, Y0, Y0
	VMULPD       Y5, Y1, Y1
	VMULPD       Y6, Y2, Y2
	VMULPD       Y7, Y3, Y3

	// Keep lanes with -708 <= x <= 0 (false for NaN); leave the rest as x.
	VBROADCASTSD expdata<>+104(SB), Y14
	VXORPD       Y15, Y15, Y15
	XORL         AX, AX
	VMOVUPD      0(DI), Y4
	VCMPPD       $0x1d, Y14, Y4, Y5 // x >= -708, ordered
	VCMPPD       $0x12, Y15, Y4, Y6 // x <= 0, ordered
	VANDPD       Y6, Y5, Y5
	VBLENDVPD    Y5, Y0, Y4, Y0
	VMOVUPD      Y0, 0(DI)
	VMOVMSKPD    Y5, BX
	ORL          BX, AX
	VMOVUPD      32(DI), Y4
	VCMPPD       $0x1d, Y14, Y4, Y5
	VCMPPD       $0x12, Y15, Y4, Y6
	VANDPD       Y6, Y5, Y5
	VBLENDVPD    Y5, Y1, Y4, Y1
	VMOVUPD      Y1, 32(DI)
	VMOVMSKPD    Y5, BX
	SHLL         $4, BX
	ORL          BX, AX
	VMOVUPD      64(DI), Y4
	VCMPPD       $0x1d, Y14, Y4, Y5
	VCMPPD       $0x12, Y15, Y4, Y6
	VANDPD       Y6, Y5, Y5
	VBLENDVPD    Y5, Y2, Y4, Y2
	VMOVUPD      Y2, 64(DI)
	VMOVMSKPD    Y5, BX
	SHLL         $8, BX
	ORL          BX, AX
	VMOVUPD      96(DI), Y4
	VCMPPD       $0x1d, Y14, Y4, Y5
	VCMPPD       $0x12, Y15, Y4, Y6
	VANDPD       Y6, Y5, Y5
	VBLENDVPD    Y5, Y3, Y4, Y3
	VMOVUPD      Y3, 96(DI)
	VMOVMSKPD    Y5, BX
	SHLL         $12, BX
	ORL          BX, AX
	XORL         $0xffff, AX
	RET

// func cholRowLanesAVX2(l *float64, i int)
//
// Row i of four packed Cholesky factors at once, interleaved by lane (entry
// k of lane g at l[4k+g]), in place as Chol.Append computes it per lane:
// for each j < i, l[i][j] = (l[i][j] − l[i][:j]·l[j][:j]) / l[j][j], then
// the pivot l[i][i] + 0 − l[i][:i]·l[i][:i], which is stored unrooted.
// Each dot product is Vector.Dot's: four partial sums over k mod 4 (one YMM
// register each, a lane per factor), the tail into the first, summed as
// (s0+s1)+(s2+s3), with a multiply then an add and never FMA.
TEXT ·cholRowLanesAVX2(SB), NOSPLIT, $0-16
	MOVQ  l+0(FP), R8 // row j, from row 0
	MOVQ  i+8(FP), CX
	LEAQ  1(CX), AX
	IMULQ CX, AX
	SHLQ  $4, AX      // 32 bytes per entry, i(i+1)/2 entries before row i
	LEAQ  (R8)(AX*1), SI
	XORQ  DX, DX      // j

dot:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   DX, R10
	SHLQ   $5, R10    // j entries, in bytes
	MOVQ   R10, R9
	ANDQ   $-128, R9  // the entries the four sums take together
	XORQ   BX, BX

quads:
	CMPQ    BX, R9
	JGE     tail
	VMOVUPD 0(SI)(BX*1), Y4
	VMOVUPD 32(SI)(BX*1), Y5
	VMOVUPD 64(SI)(BX*1), Y6
	VMOVUPD 96(SI)(BX*1), Y7
	VMULPD  0(R8)(BX*1), Y4, Y4
	VMULPD  32(R8)(BX*1), Y5, Y5
	VMULPD  64(R8)(BX*1), Y6, Y6
	VMULPD  96(R8)(BX*1), Y7, Y7
	VADDPD  Y4, Y0, Y0
	VADDPD  Y5, Y1, Y1
	VADDPD  Y6, Y2, Y2
	VADDPD  Y7, Y3, Y3
	ADDQ    $128, BX
	JMP     quads

tail:
	CMPQ    BX, R10
	JGE     sum
	VMOVUPD (SI)(BX*1), Y4
	VMULPD  (R8)(BX*1), Y4, Y4
	VADDPD  Y4, Y0, Y0
	ADDQ    $32, BX
	JMP     tail

sum:
	VADDPD  Y1, Y0, Y0
	VADDPD  Y3, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD (SI)(R10*1), Y4 // l[i][j]
	CMPQ    DX, CX
	JGE     pivot
	VSUBPD  Y0, Y4, Y4
	VDIVPD  (R8)(R10*1), Y4, Y4
	VMOVUPD Y4, (SI)(R10*1)
	LEAQ    32(R8)(R10*1), R8 // row j+1 starts j+1 entries later
	INCQ    DX
	JMP     dot

pivot:
	VXORPD  Y5, Y5, Y5
	VADDPD  Y5, Y4, Y4 // the jitter of a first attempt, as Append adds it
	VSUBPD  Y0, Y4, Y4
	VMOVUPD Y4, (SI)(R10*1)
	VZEROUPPER
	RET
