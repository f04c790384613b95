//go:build amd64 && !purego

#include "textflag.h"

// SHA-1 on sixteen messages at once with AVX-512 F and BW: lane i of every
// ZMM register belongs to message i. A round is the scalar round on sixteen
// lanes — choose, parity and majority are one VPTERNLOGD each, the
// rotations VPROLD — and a block is one 64-byte load per lane, transposed
// so that each of the sixteen schedule words is one register.
//
// Operand order is Plan 9's: sources first, the destination last. For
// VPTERNLOGD $imm, c, b, a the result is imm's bit 4a+2b+c; for
// VSHUFI32X4 $imm, b, a, y the 128-bit quarters of y are a's quarters
// imm[1:0] and imm[3:2], then b's imm[5:4] and imm[7:6]; VPUNPCKLDQ b, a, y
// interleaves the low words of each quarter of a and b, a's first.

// The schedule is a ring: W(t mod 16) holds word t.
#define W0	Z16
#define W1	Z17
#define W2	Z18
#define W3	Z19
#define W4	Z20
#define W5	Z21
#define W6	Z22
#define W7	Z23
#define W8	Z24
#define W9	Z25
#define W10	Z26
#define W11	Z27
#define W12	Z28
#define W13	Z29
#define W14	Z30
#define W15	Z31

// A-E are Z0-Z4, renamed instead of moved: after a round, the register that
// held E holds the new A. T0 and T1 are scratch; KV is the round constant
// in every lane.
#define T0	Z5
#define T1	Z6
#define KV	Z7

#define CH	$0xCA // b ? c : d
#define PARITY	$0x96 // b ^ c ^ d
#define MAJ	$0xE8 // two or three of b, c, d

// One round: e += rol(a, 5) + f(b, c, d) + K + w, and b = rol(b, 30).
#define ROUND(f, a, b, c, d, e, w) \
	VPADDD	w, e, e; \
	VPADDD	KV, e, e; \
	VPROLD	$5, a, T0; \
	VMOVDQA32	b, T1; \
	VPTERNLOGD	f, d, c, T1; \
	VPADDD	T0, e, e; \
	VPADDD	T1, e, e; \
	VPROLD	$30, b, b

// Word t, in the place of word t-16 (w0), from t-14, t-8 and t-3.
#define SCHED(w0, w2, w8, w13) \
	VPTERNLOGD	$0x96, w13, w8, w0; \
	VPXORD	w2, w0, w0; \
	VPROLD	$1, w0, w0

// The 16x16 transpose of 32-bit words takes three steps. Rows 2k and 2k+1
// interleave their words, then those results interleave their word pairs:
// that leaves quarter q of register 4m+c holding word 4q+c of rows 4m to
// 4m+3. QUARTERS then moves the quarters of registers c, 4+c, 8+c and 12+c
// so that register 4q+c holds word 4q+c of every row, through Z0-Z3.
#define UNPACK(lo, hi, a, b, ylo, yhi) \
	lo	b, a, ylo; \
	hi	b, a, yhi
#define QUARTERS(r0, r1, r2, r3) \
	VSHUFI32X4	$0x44, r1, r0, Z0; \
	VSHUFI32X4	$0xEE, r1, r0, Z1; \
	VSHUFI32X4	$0x44, r3, r2, Z2; \
	VSHUFI32X4	$0xEE, r3, r2, Z3; \
	VSHUFI32X4	$0x88, Z2, Z0, r0; \
	VSHUFI32X4	$0xDD, Z2, Z0, r1; \
	VSHUFI32X4	$0x88, Z3, Z1, r2; \
	VSHUFI32X4	$0xDD, Z3, Z1, r3

// VPSHUFB control reversing the bytes of every 32-bit word: the message's
// big-endian words to native ones.
DATA bswap32<>+0(SB)/8, $0x0405060700010203
DATA bswap32<>+8(SB)/8, $0x0c0d0e0f08090a0b
DATA bswap32<>+16(SB)/8, $0x0405060700010203
DATA bswap32<>+24(SB)/8, $0x0c0d0e0f08090a0b
DATA bswap32<>+32(SB)/8, $0x0405060700010203
DATA bswap32<>+40(SB)/8, $0x0c0d0e0f08090a0b
DATA bswap32<>+48(SB)/8, $0x0405060700010203
DATA bswap32<>+56(SB)/8, $0x0c0d0e0f08090a0b
GLOBL bswap32<>(SB), RODATA|NOPTR, $64

// func blocks16(h *[5][16]uint32, p *[16]*byte, n int)
//
// Folds n consecutive blocks of each lane into h: lane i's chaining words
// are h[0][i] to h[4][i], and its blocks start at p[i]. n must be positive.
TEXT ·blocks16(SB), NOSPLIT, $0-24
	MOVQ	h+0(FP), DI
	MOVQ	p+8(FP), SI
	MOVQ	n+16(FP), CX
	XORQ	R8, R8 // the block's offset from every p[i]

loop:
	// Row i, lane i's block, into W(i).
	MOVQ	0(SI), AX
	VMOVDQU32	(AX)(R8*1), W0
	MOVQ	8(SI), AX
	VMOVDQU32	(AX)(R8*1), W1
	MOVQ	16(SI), AX
	VMOVDQU32	(AX)(R8*1), W2
	MOVQ	24(SI), AX
	VMOVDQU32	(AX)(R8*1), W3
	MOVQ	32(SI), AX
	VMOVDQU32	(AX)(R8*1), W4
	MOVQ	40(SI), AX
	VMOVDQU32	(AX)(R8*1), W5
	MOVQ	48(SI), AX
	VMOVDQU32	(AX)(R8*1), W6
	MOVQ	56(SI), AX
	VMOVDQU32	(AX)(R8*1), W7
	MOVQ	64(SI), AX
	VMOVDQU32	(AX)(R8*1), W8
	MOVQ	72(SI), AX
	VMOVDQU32	(AX)(R8*1), W9
	MOVQ	80(SI), AX
	VMOVDQU32	(AX)(R8*1), W10
	MOVQ	88(SI), AX
	VMOVDQU32	(AX)(R8*1), W11
	MOVQ	96(SI), AX
	VMOVDQU32	(AX)(R8*1), W12
	MOVQ	104(SI), AX
	VMOVDQU32	(AX)(R8*1), W13
	MOVQ	112(SI), AX
	VMOVDQU32	(AX)(R8*1), W14
	MOVQ	120(SI), AX
	VMOVDQU32	(AX)(R8*1), W15

	// Transpose rows into schedule words: W to Z0-Z15, back to W, then the
	// quarters in place.
	UNPACK(VPUNPCKLDQ, VPUNPCKHDQ, W0, W1, Z0, Z1)
	UNPACK(VPUNPCKLDQ, VPUNPCKHDQ, W2, W3, Z2, Z3)
	UNPACK(VPUNPCKLDQ, VPUNPCKHDQ, W4, W5, Z4, Z5)
	UNPACK(VPUNPCKLDQ, VPUNPCKHDQ, W6, W7, Z6, Z7)
	UNPACK(VPUNPCKLDQ, VPUNPCKHDQ, W8, W9, Z8, Z9)
	UNPACK(VPUNPCKLDQ, VPUNPCKHDQ, W10, W11, Z10, Z11)
	UNPACK(VPUNPCKLDQ, VPUNPCKHDQ, W12, W13, Z12, Z13)
	UNPACK(VPUNPCKLDQ, VPUNPCKHDQ, W14, W15, Z14, Z15)
	UNPACK(VPUNPCKLQDQ, VPUNPCKHQDQ, Z0, Z2, W0, W1)
	UNPACK(VPUNPCKLQDQ, VPUNPCKHQDQ, Z1, Z3, W2, W3)
	UNPACK(VPUNPCKLQDQ, VPUNPCKHQDQ, Z4, Z6, W4, W5)
	UNPACK(VPUNPCKLQDQ, VPUNPCKHQDQ, Z5, Z7, W6, W7)
	UNPACK(VPUNPCKLQDQ, VPUNPCKHQDQ, Z8, Z10, W8, W9)
	UNPACK(VPUNPCKLQDQ, VPUNPCKHQDQ, Z9, Z11, W10, W11)
	UNPACK(VPUNPCKLQDQ, VPUNPCKHQDQ, Z12, Z14, W12, W13)
	UNPACK(VPUNPCKLQDQ, VPUNPCKHQDQ, Z13, Z15, W14, W15)
	QUARTERS(W0, W4, W8, W12)
	QUARTERS(W1, W5, W9, W13)
	QUARTERS(W2, W6, W10, W14)
	QUARTERS(W3, W7, W11, W15)
	VMOVDQU64	bswap32<>(SB), Z8
	VPSHUFB	Z8, W0, W0
	VPSHUFB	Z8, W1, W1
	VPSHUFB	Z8, W2, W2
	VPSHUFB	Z8, W3, W3
	VPSHUFB	Z8, W4, W4
	VPSHUFB	Z8, W5, W5
	VPSHUFB	Z8, W6, W6
	VPSHUFB	Z8, W7, W7
	VPSHUFB	Z8, W8, W8
	VPSHUFB	Z8, W9, W9
	VPSHUFB	Z8, W10, W10
	VPSHUFB	Z8, W11, W11
	VPSHUFB	Z8, W12, W12
	VPSHUFB	Z8, W13, W13
	VPSHUFB	Z8, W14, W14
	VPSHUFB	Z8, W15, W15

	VMOVDQU32	0(DI), Z0
	VMOVDQU32	64(DI), Z1
	VMOVDQU32	128(DI), Z2
	VMOVDQU32	192(DI), Z3
	VMOVDQU32	256(DI), Z4

	// Rounds 0-19
	MOVL	$0x5A827999, AX
	VPBROADCASTD	AX, KV
	ROUND(CH, Z0, Z1, Z2, Z3, Z4, W0)
	ROUND(CH, Z4, Z0, Z1, Z2, Z3, W1)
	ROUND(CH, Z3, Z4, Z0, Z1, Z2, W2)
	ROUND(CH, Z2, Z3, Z4, Z0, Z1, W3)
	ROUND(CH, Z1, Z2, Z3, Z4, Z0, W4)
	ROUND(CH, Z0, Z1, Z2, Z3, Z4, W5)
	ROUND(CH, Z4, Z0, Z1, Z2, Z3, W6)
	ROUND(CH, Z3, Z4, Z0, Z1, Z2, W7)
	ROUND(CH, Z2, Z3, Z4, Z0, Z1, W8)
	ROUND(CH, Z1, Z2, Z3, Z4, Z0, W9)
	ROUND(CH, Z0, Z1, Z2, Z3, Z4, W10)
	ROUND(CH, Z4, Z0, Z1, Z2, Z3, W11)
	ROUND(CH, Z3, Z4, Z0, Z1, Z2, W12)
	ROUND(CH, Z2, Z3, Z4, Z0, Z1, W13)
	ROUND(CH, Z1, Z2, Z3, Z4, Z0, W14)
	ROUND(CH, Z0, Z1, Z2, Z3, Z4, W15)
	SCHED(W0, W2, W8, W13)
	ROUND(CH, Z4, Z0, Z1, Z2, Z3, W0)
	SCHED(W1, W3, W9, W14)
	ROUND(CH, Z3, Z4, Z0, Z1, Z2, W1)
	SCHED(W2, W4, W10, W15)
	ROUND(CH, Z2, Z3, Z4, Z0, Z1, W2)
	SCHED(W3, W5, W11, W0)
	ROUND(CH, Z1, Z2, Z3, Z4, Z0, W3)

	// Rounds 20-39
	MOVL	$0x6ED9EBA1, AX
	VPBROADCASTD	AX, KV
	SCHED(W4, W6, W12, W1)
	ROUND(PARITY, Z0, Z1, Z2, Z3, Z4, W4)
	SCHED(W5, W7, W13, W2)
	ROUND(PARITY, Z4, Z0, Z1, Z2, Z3, W5)
	SCHED(W6, W8, W14, W3)
	ROUND(PARITY, Z3, Z4, Z0, Z1, Z2, W6)
	SCHED(W7, W9, W15, W4)
	ROUND(PARITY, Z2, Z3, Z4, Z0, Z1, W7)
	SCHED(W8, W10, W0, W5)
	ROUND(PARITY, Z1, Z2, Z3, Z4, Z0, W8)
	SCHED(W9, W11, W1, W6)
	ROUND(PARITY, Z0, Z1, Z2, Z3, Z4, W9)
	SCHED(W10, W12, W2, W7)
	ROUND(PARITY, Z4, Z0, Z1, Z2, Z3, W10)
	SCHED(W11, W13, W3, W8)
	ROUND(PARITY, Z3, Z4, Z0, Z1, Z2, W11)
	SCHED(W12, W14, W4, W9)
	ROUND(PARITY, Z2, Z3, Z4, Z0, Z1, W12)
	SCHED(W13, W15, W5, W10)
	ROUND(PARITY, Z1, Z2, Z3, Z4, Z0, W13)
	SCHED(W14, W0, W6, W11)
	ROUND(PARITY, Z0, Z1, Z2, Z3, Z4, W14)
	SCHED(W15, W1, W7, W12)
	ROUND(PARITY, Z4, Z0, Z1, Z2, Z3, W15)
	SCHED(W0, W2, W8, W13)
	ROUND(PARITY, Z3, Z4, Z0, Z1, Z2, W0)
	SCHED(W1, W3, W9, W14)
	ROUND(PARITY, Z2, Z3, Z4, Z0, Z1, W1)
	SCHED(W2, W4, W10, W15)
	ROUND(PARITY, Z1, Z2, Z3, Z4, Z0, W2)
	SCHED(W3, W5, W11, W0)
	ROUND(PARITY, Z0, Z1, Z2, Z3, Z4, W3)
	SCHED(W4, W6, W12, W1)
	ROUND(PARITY, Z4, Z0, Z1, Z2, Z3, W4)
	SCHED(W5, W7, W13, W2)
	ROUND(PARITY, Z3, Z4, Z0, Z1, Z2, W5)
	SCHED(W6, W8, W14, W3)
	ROUND(PARITY, Z2, Z3, Z4, Z0, Z1, W6)
	SCHED(W7, W9, W15, W4)
	ROUND(PARITY, Z1, Z2, Z3, Z4, Z0, W7)

	// Rounds 40-59
	MOVL	$0x8F1BBCDC, AX
	VPBROADCASTD	AX, KV
	SCHED(W8, W10, W0, W5)
	ROUND(MAJ, Z0, Z1, Z2, Z3, Z4, W8)
	SCHED(W9, W11, W1, W6)
	ROUND(MAJ, Z4, Z0, Z1, Z2, Z3, W9)
	SCHED(W10, W12, W2, W7)
	ROUND(MAJ, Z3, Z4, Z0, Z1, Z2, W10)
	SCHED(W11, W13, W3, W8)
	ROUND(MAJ, Z2, Z3, Z4, Z0, Z1, W11)
	SCHED(W12, W14, W4, W9)
	ROUND(MAJ, Z1, Z2, Z3, Z4, Z0, W12)
	SCHED(W13, W15, W5, W10)
	ROUND(MAJ, Z0, Z1, Z2, Z3, Z4, W13)
	SCHED(W14, W0, W6, W11)
	ROUND(MAJ, Z4, Z0, Z1, Z2, Z3, W14)
	SCHED(W15, W1, W7, W12)
	ROUND(MAJ, Z3, Z4, Z0, Z1, Z2, W15)
	SCHED(W0, W2, W8, W13)
	ROUND(MAJ, Z2, Z3, Z4, Z0, Z1, W0)
	SCHED(W1, W3, W9, W14)
	ROUND(MAJ, Z1, Z2, Z3, Z4, Z0, W1)
	SCHED(W2, W4, W10, W15)
	ROUND(MAJ, Z0, Z1, Z2, Z3, Z4, W2)
	SCHED(W3, W5, W11, W0)
	ROUND(MAJ, Z4, Z0, Z1, Z2, Z3, W3)
	SCHED(W4, W6, W12, W1)
	ROUND(MAJ, Z3, Z4, Z0, Z1, Z2, W4)
	SCHED(W5, W7, W13, W2)
	ROUND(MAJ, Z2, Z3, Z4, Z0, Z1, W5)
	SCHED(W6, W8, W14, W3)
	ROUND(MAJ, Z1, Z2, Z3, Z4, Z0, W6)
	SCHED(W7, W9, W15, W4)
	ROUND(MAJ, Z0, Z1, Z2, Z3, Z4, W7)
	SCHED(W8, W10, W0, W5)
	ROUND(MAJ, Z4, Z0, Z1, Z2, Z3, W8)
	SCHED(W9, W11, W1, W6)
	ROUND(MAJ, Z3, Z4, Z0, Z1, Z2, W9)
	SCHED(W10, W12, W2, W7)
	ROUND(MAJ, Z2, Z3, Z4, Z0, Z1, W10)
	SCHED(W11, W13, W3, W8)
	ROUND(MAJ, Z1, Z2, Z3, Z4, Z0, W11)

	// Rounds 60-79
	MOVL	$0xCA62C1D6, AX
	VPBROADCASTD	AX, KV
	SCHED(W12, W14, W4, W9)
	ROUND(PARITY, Z0, Z1, Z2, Z3, Z4, W12)
	SCHED(W13, W15, W5, W10)
	ROUND(PARITY, Z4, Z0, Z1, Z2, Z3, W13)
	SCHED(W14, W0, W6, W11)
	ROUND(PARITY, Z3, Z4, Z0, Z1, Z2, W14)
	SCHED(W15, W1, W7, W12)
	ROUND(PARITY, Z2, Z3, Z4, Z0, Z1, W15)
	SCHED(W0, W2, W8, W13)
	ROUND(PARITY, Z1, Z2, Z3, Z4, Z0, W0)
	SCHED(W1, W3, W9, W14)
	ROUND(PARITY, Z0, Z1, Z2, Z3, Z4, W1)
	SCHED(W2, W4, W10, W15)
	ROUND(PARITY, Z4, Z0, Z1, Z2, Z3, W2)
	SCHED(W3, W5, W11, W0)
	ROUND(PARITY, Z3, Z4, Z0, Z1, Z2, W3)
	SCHED(W4, W6, W12, W1)
	ROUND(PARITY, Z2, Z3, Z4, Z0, Z1, W4)
	SCHED(W5, W7, W13, W2)
	ROUND(PARITY, Z1, Z2, Z3, Z4, Z0, W5)
	SCHED(W6, W8, W14, W3)
	ROUND(PARITY, Z0, Z1, Z2, Z3, Z4, W6)
	SCHED(W7, W9, W15, W4)
	ROUND(PARITY, Z4, Z0, Z1, Z2, Z3, W7)
	SCHED(W8, W10, W0, W5)
	ROUND(PARITY, Z3, Z4, Z0, Z1, Z2, W8)
	SCHED(W9, W11, W1, W6)
	ROUND(PARITY, Z2, Z3, Z4, Z0, Z1, W9)
	SCHED(W10, W12, W2, W7)
	ROUND(PARITY, Z1, Z2, Z3, Z4, Z0, W10)
	SCHED(W11, W13, W3, W8)
	ROUND(PARITY, Z0, Z1, Z2, Z3, Z4, W11)
	SCHED(W12, W14, W4, W9)
	ROUND(PARITY, Z4, Z0, Z1, Z2, Z3, W12)
	SCHED(W13, W15, W5, W10)
	ROUND(PARITY, Z3, Z4, Z0, Z1, Z2, W13)
	SCHED(W14, W0, W6, W11)
	ROUND(PARITY, Z2, Z3, Z4, Z0, Z1, W14)
	SCHED(W15, W1, W7, W12)
	ROUND(PARITY, Z1, Z2, Z3, Z4, Z0, W15)

	// Add the block's entry state back in.
	VPADDD	0(DI), Z0, Z0
	VMOVDQU32	Z0, 0(DI)
	VPADDD	64(DI), Z1, Z1
	VMOVDQU32	Z1, 64(DI)
	VPADDD	128(DI), Z2, Z2
	VMOVDQU32	Z2, 128(DI)
	VPADDD	192(DI), Z3, Z3
	VMOVDQU32	Z3, 192(DI)
	VPADDD	256(DI), Z4, Z4
	VMOVDQU32	Z4, 256(DI)

	ADDQ	$64, R8
	DECQ	CX
	JNZ	loop
	VZEROUPPER
	RET
