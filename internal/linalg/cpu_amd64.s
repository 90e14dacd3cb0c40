//go:build !purego

#include "textflag.h"

// func hasAVX2FMA() bool
//
// True when the CPU has AVX2 and FMA and the OS saves the YMM registers
// across context switches (OSXSAVE set and XCR0 enabling SSE and AVX state).
TEXT ·hasAVX2FMA(SB), NOSPLIT, $0-1
	XORL CX, CX
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no

	// Leaf 1, ECX: FMA (bit 12), OSXSAVE (bit 27), AVX (bit 28).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18001000, CX
	CMPL CX, $0x18001000
	JNE  no

	// XCR0: XMM (bit 1) and YMM (bit 2) state enabled by the OS.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no

	// Leaf 7 subleaf 0, EBX: AVX2 (bit 5).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JZ   no

	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
