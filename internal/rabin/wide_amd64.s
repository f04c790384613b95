//go:build amd64 && !purego

#include "textflag.h"

// The byte-sliced Rabin scan (DESIGN §12.1): 64 windows rolled at once, one
// per byte of a ZMM register, with no table lookup. Byte j of every lane's
// digest lives in plane j (seven planes, for degrees 49…56); byte j of
// modTab[top] and of out8Tab[lead] is an 8×8 GF(2) matrix times the index
// byte, which is one VGF2P8AFFINEQB for all 64 lanes.
//
// One call is one tile of up to 64 steps. Lane k's bytes start at
// rows+k·q; the tile's 64 rows of up to 64 bytes are transposed into
// columns, column s holding step at+s of every lane, and stored in a ring of
// 128 columns: the byte a step evicts is the column size steps back, which
// is either this tile's or the last one's. Then every step shifts the
// digests by renaming planes — the plane the old top byte leaves is where
// the new input lands — and adds both products in one VPTERNLOGQ per plane.
//
// Operand order is Plan 9's: sources first, the destination last. For
// VPTERNLOGQ $imm, c, b, a the result is imm's bit 4a+2b+c; for
// VGF2P8AFFINEQB $0, A, x, y it is y = A·x bytewise; for VPMULTISHIFTQB x,
// c, y byte i of y is the 8 bits of x's qword from bit c[i] on, wrapping;
// for VPUNPCKLBW b, a, y, y interleaves the low 8 bytes of each 16 of a
// and of b, a's first.

// wideState's layout (candidates.go): planes [7][64]byte, hits [64][2]uint64,
// then a ring of 128 columns of 64 bytes that starts at its first 64-byte
// boundary.
#define HITS	448
#define RING	1472

// wideTabs' layout: mod [7]uint64, out [7]uint64, ctrl5, ctrl6, sel uint64.
#define MOD	0
#define OUT	56
#define CTRL5Q	112
#define CTRL6Q	120
#define SEL	128

// The 64×64 transpose is six stages, each of which pairs every row with the
// row that differs from it in one bit of its index, and exchanges that bit
// with one bit of the byte position: one instruction per output row, all of
// them single-uop shuffles. UNPACKB exchanges the row bit with position bit
// 3 and rotates position bits 0…3 (the row bit lands in bit 0); SWAP5
// exchanges it with bit 5; ROT4 takes bit 4 into the row, bit 5 into bit 4
// and the row bit into bit 5. Lo goes to the row whose bit is 0, hi to the
// other; a and b are left as they were.
#define UNPACKB(a, b, lo, hi) \
	VPUNPCKLBW	b, a, lo; \
	VPUNPCKHBW	b, a, hi
#define SWAP5(a, b, lo, hi) \
	VSHUFI64X2	$0x44, b, a, lo; \
	VSHUFI64X2	$0xEE, b, a, hi
#define ROT4(a, b, lo, hi) \
	VSHUFI64X2	$0x88, b, a, lo; \
	VSHUFI64X2	$0xDD, b, a, hi

// STAGES3 runs three stages on eight rows, row i of the group in Zi: op2 on
// rows i and i^4, then op1 on i and i^2, then op0 on i and i^1. Row i ends
// in Z(8+i).
#define STAGES3(op2, op1, op0) \
	op2(Z0, Z4, Z8, Z12); \
	op2(Z1, Z5, Z9, Z13); \
	op2(Z2, Z6, Z10, Z14); \
	op2(Z3, Z7, Z11, Z15); \
	op1(Z8, Z10, Z0, Z2); \
	op1(Z9, Z11, Z1, Z3); \
	op1(Z12, Z14, Z4, Z6); \
	op1(Z13, Z15, Z5, Z7); \
	op0(Z0, Z1, Z8, Z9); \
	op0(Z2, Z3, Z10, Z11); \
	op0(Z4, Z5, Z12, Z13); \
	op0(Z6, Z7, Z14, Z15)

// Step-phase registers: the planes rotate through Z0…Z6; the rest is fixed.
#define SELB	Z7  // bytes 0xFF>>(deg-48): the bits of top that come from plane 5
#define CTRL5	Z8  // VPMULTISHIFTQB's controls: byte i of each qword from bit
#define CTRL6	Z9  // 8i+deg-48 of plane 5 and from bit 8i+deg-56 of plane 6
#define MASK0	Z10 // the mask's byte 0 and byte 1 in every lane
#define MASK1	Z11
#define TOP	Z12
#define LEAD	Z14 // the evicted bytes
// Z13, Z15, Z16, Z17 are scratch; Z18…Z24 hold mod[0…6], Z25…Z31 out[0…6].

// PLANE makes plane j of the next digest in place over p, which holds plane
// j-1 of this one: p ^= mod[j]·top ^ out[j]·lead.
#define PLANE(p, m, o) \
	VGF2P8AFFINEQB	$0, m, TOP, Z15; \
	VGF2P8AFFINEQB	$0, o, LEAD, Z16; \
	VPTERNLOGQ	$0x96, Z16, Z15, p

// STEP rolls every lane one byte. p0…p6 are the registers of planes 0…6;
// afterwards plane j is in p(j-1) and plane 0 in p6. DI is where the step's
// hit record goes, R11 the step, R12 and R13 the ring offsets of the step's
// column and of the one it evicts, CX the steps left in the tile.
#define STEP(p0, p1, p2, p3, p4, p5, p6, exit) \
	VPMULTISHIFTQB	p5, CTRL5, TOP; \
	VPMULTISHIFTQB	p6, CTRL6, Z13; \
	VPTERNLOGQ	$0xE2, Z13, SELB, TOP; \
	VMOVDQU64	(BX)(R13*1), LEAD; \
	PLANE(p5, Z24, Z31); \
	PLANE(p4, Z23, Z30); \
	PLANE(p3, Z22, Z29); \
	PLANE(p2, Z21, Z28); \
	PLANE(p1, Z20, Z27); \
	PLANE(p0, Z19, Z26); \
	VGF2P8AFFINEQB	$0, Z18, TOP, p6; \
	VGF2P8AFFINEQB	$0, Z25, LEAD, Z16; \
	VPTERNLOGQ	$0x96, (BX)(R12*1), Z16, p6; \
	VPANDNQ	MASK0, p6, Z17; \
	VPTERNLOGQ	$0xF2, MASK1, p0, Z17; \
	VPTESTNMB	Z17, Z17, K1; \
	KMOVQ	K1, DX; \
	MOVQ	DX, (DI); \
	MOVQ	R11, 8(DI); \
	LEAQ	16(DI), R10; \
	TESTQ	DX, DX; \
	CMOVQNE	R10, DI; \
	INCQ	R11; \
	ADDQ	$64, R12; \
	ADDQ	$64, R13; \
	ANDQ	$8191, R13; \
	DECQ	CX; \
	JZ	exit

// SAVE stores the planes, plane j from pj, and leaves.
#define SAVE(p0, p1, p2, p3, p4, p5, p6) \
	VMOVDQU64	p0, 0(SI); \
	VMOVDQU64	p1, 64(SI); \
	VMOVDQU64	p2, 128(SI); \
	VMOVDQU64	p3, 192(SI); \
	VMOVDQU64	p4, 256(SI); \
	VMOVDQU64	p5, 320(SI); \
	VMOVDQU64	p6, 384(SI); \
	JMP	done

// func wideTile(st *wideState, t *wideTabs, rows *byte, q, at, n, size int, mask uint64) int
//
// Rolls steps at…min(at+64, n)-1 of the 64 lanes whose rows start q bytes
// apart at rows, at a multiple of 64, and returns how many hit records it
// wrote to st.hits: {lanes that hit, step} for each step some lane hit.
TEXT ·wideTile(SB), NOSPLIT, $0-72
	MOVQ	st+0(FP), SI
	MOVQ	rows+16(FP), R8
	MOVQ	q+24(FP), R9
	MOVQ	at+32(FP), R11
	MOVQ	n+40(FP), CX
	LEAQ	RING+63(SI), BX
	ANDQ	$~63, BX

	// The tile's steps, CX, and K2 to load that many bytes of each row:
	// the last tile stops at the lanes' ends.
	SUBQ	R11, CX
	MOVQ	$64, DX
	CMPQ	CX, DX
	CMOVQGT	DX, CX
	MOVQ	$-1, DX
	BZHIQ	CX, DX, DX
	KMOVQ	DX, K2

	// R12: ring offset of the tile's first column; R13: of the column its
	// first step evicts (zero before any was written: the warm-up steps).
	MOVQ	R11, R12
	ANDQ	$64, R12
	SHLQ	$6, R12
	MOVQ	R11, R13
	SUBQ	size+48(FP), R13
	ANDQ	$127, R13
	SHLQ	$6, R13

	// Pass 1 takes eight rows q·2 bytes apart at a time and runs the stages
	// on row bits 5, 4 and 3; pass 2 takes eight rows again and runs them
	// on row bits 2, 1 and 0. Which lane goes to which row is chosen so that
	// byte k of every column is lane k: row r is lane r0·32 + r1·16 + r5·8 +
	// r4·4 + r3·2 + r2, and ends holding column r1·32 + r0·16 + r5·8 +
	// r4·4 + r3·2 + r2 — in whose slot pass 1 stores it already, so that
	// pass 2 works in place.
	ADDQ	R11, R8
	LEAQ	(R9)(R9*1), DX
	XORQ	AX, AX
pass1:
	// The group m = AX: rows 8i+m. R10: its first lane, m&1·32 + m&2·8 +
	// m>>2; R14: its first slot, m&2·16 + m&1·16 + m>>2.
	MOVQ	AX, DI
	SHRQ	$2, DI
	MOVQ	AX, R10
	ANDQ	$1, R10
	SHLQ	$4, R10
	MOVQ	AX, R14
	ANDQ	$2, R14
	SHLQ	$3, R14
	LEAQ	(DI)(R10*2), R10
	ADDQ	R14, R10
	LEAQ	(DI)(R14*2), R14
	MOVQ	AX, DI
	ANDQ	$1, DI
	SHLQ	$4, DI
	ADDQ	DI, R14
	SHLQ	$6, R14
	ADDQ	R12, R14
	ADDQ	BX, R14
	IMULQ	R9, R10
	ADDQ	R8, R10
	VMOVDQU8.Z	(R10), K2, Z0
	ADDQ	DX, R10
	VMOVDQU8.Z	(R10), K2, Z1
	ADDQ	DX, R10
	VMOVDQU8.Z	(R10), K2, Z2
	ADDQ	DX, R10
	VMOVDQU8.Z	(R10), K2, Z3
	ADDQ	DX, R10
	VMOVDQU8.Z	(R10), K2, Z4
	ADDQ	DX, R10
	VMOVDQU8.Z	(R10), K2, Z5
	ADDQ	DX, R10
	VMOVDQU8.Z	(R10), K2, Z6
	ADDQ	DX, R10
	VMOVDQU8.Z	(R10), K2, Z7
	STAGES3(UNPACKB, UNPACKB, UNPACKB)
	VMOVDQU64	Z8, 0(R14)
	VMOVDQU64	Z9, 128(R14)
	VMOVDQU64	Z10, 256(R14)
	VMOVDQU64	Z11, 384(R14)
	VMOVDQU64	Z12, 512(R14)
	VMOVDQU64	Z13, 640(R14)
	VMOVDQU64	Z14, 768(R14)
	VMOVDQU64	Z15, 896(R14)
	INCQ	AX
	CMPQ	AX, $8
	JNE	pass1

	// The group m = 0…7: rows 8m+i, in slots 2m + i&2·16 + i&1·16 + i>>2.
	LEAQ	(BX)(R12*1), R14
	MOVQ	$8, AX
pass2:
	VMOVDQU64	0(R14), Z0
	VMOVDQU64	1024(R14), Z1
	VMOVDQU64	2048(R14), Z2
	VMOVDQU64	3072(R14), Z3
	VMOVDQU64	64(R14), Z4
	VMOVDQU64	1088(R14), Z5
	VMOVDQU64	2112(R14), Z6
	VMOVDQU64	3136(R14), Z7
	STAGES3(UNPACKB, SWAP5, ROT4)
	VMOVDQU64	Z8, 0(R14)
	VMOVDQU64	Z9, 1024(R14)
	VMOVDQU64	Z10, 2048(R14)
	VMOVDQU64	Z11, 3072(R14)
	VMOVDQU64	Z12, 64(R14)
	VMOVDQU64	Z13, 1088(R14)
	VMOVDQU64	Z14, 2112(R14)
	VMOVDQU64	Z15, 3136(R14)
	ADDQ	$128, R14
	DECQ	AX
	JNZ	pass2

	// The step phase's constants and the digests.
	MOVQ	t+8(FP), DX
	VPBROADCASTQ	MOD+0(DX), Z18
	VPBROADCASTQ	MOD+8(DX), Z19
	VPBROADCASTQ	MOD+16(DX), Z20
	VPBROADCASTQ	MOD+24(DX), Z21
	VPBROADCASTQ	MOD+32(DX), Z22
	VPBROADCASTQ	MOD+40(DX), Z23
	VPBROADCASTQ	MOD+48(DX), Z24
	VPBROADCASTQ	OUT+0(DX), Z25
	VPBROADCASTQ	OUT+8(DX), Z26
	VPBROADCASTQ	OUT+16(DX), Z27
	VPBROADCASTQ	OUT+24(DX), Z28
	VPBROADCASTQ	OUT+32(DX), Z29
	VPBROADCASTQ	OUT+40(DX), Z30
	VPBROADCASTQ	OUT+48(DX), Z31
	VPBROADCASTQ	SEL(DX), SELB
	VPBROADCASTQ	CTRL5Q(DX), CTRL5
	VPBROADCASTQ	CTRL6Q(DX), CTRL6
	MOVQ	mask+56(FP), DX
	VPBROADCASTB	DX, MASK0
	SHRQ	$8, DX
	VPBROADCASTB	DX, MASK1
	VMOVDQU64	0(SI), Z0
	VMOVDQU64	64(SI), Z1
	VMOVDQU64	128(SI), Z2
	VMOVDQU64	192(SI), Z3
	VMOVDQU64	256(SI), Z4
	VMOVDQU64	320(SI), Z5
	VMOVDQU64	384(SI), Z6
	LEAQ	HITS(SI), DI

	// Seven steps bring the planes back to their registers; the tile may
	// end after any of them, with plane 0 in a different one.
steps:
	STEP(Z0, Z1, Z2, Z3, Z4, Z5, Z6, exit1)
	STEP(Z6, Z0, Z1, Z2, Z3, Z4, Z5, exit2)
	STEP(Z5, Z6, Z0, Z1, Z2, Z3, Z4, exit3)
	STEP(Z4, Z5, Z6, Z0, Z1, Z2, Z3, exit4)
	STEP(Z3, Z4, Z5, Z6, Z0, Z1, Z2, exit5)
	STEP(Z2, Z3, Z4, Z5, Z6, Z0, Z1, exit6)
	STEP(Z1, Z2, Z3, Z4, Z5, Z6, Z0, exit0)
	JMP	steps
exit1:
	SAVE(Z6, Z0, Z1, Z2, Z3, Z4, Z5)
exit2:
	SAVE(Z5, Z6, Z0, Z1, Z2, Z3, Z4)
exit3:
	SAVE(Z4, Z5, Z6, Z0, Z1, Z2, Z3)
exit4:
	SAVE(Z3, Z4, Z5, Z6, Z0, Z1, Z2)
exit5:
	SAVE(Z2, Z3, Z4, Z5, Z6, Z0, Z1)
exit6:
	SAVE(Z1, Z2, Z3, Z4, Z5, Z6, Z0)
exit0:
	SAVE(Z0, Z1, Z2, Z3, Z4, Z5, Z6)
done:
	LEAQ	HITS(SI), DX
	SUBQ	DX, DI
	SHRQ	$4, DI
	MOVQ	DI, ret+64(FP)
	VZEROUPPER
	RET

