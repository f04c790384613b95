//go:build amd64 && !purego

#include "textflag.h"

// SHA-1 with the Intel SHA extensions, after the schedule of Intel's and
// Linux's sha1_ni: four rounds per SHA1RNDS4, the message schedule on
// SHA1MSG1 / PXOR / SHA1MSG2, E carried from group to group by SHA1NEXTE.
//
// Operand order is Plan 9's (sources first, destination last), which for
// these instructions is also AT&T's: "SHA1RNDS4 $f, E, ABCD" updates ABCD.
// Every instruction here is legacy-SSE encoded, so a memory operand of
// anything but MOVOU would have to be 16-byte aligned; there are none —
// the input and the state are loaded with MOVOU (callers pass any
// alignment) and everything else stays in registers, which is also why the
// frame is empty.
//
// Register layout. SHA1RNDS4 wants A in the top dword of ABCD and D in the
// bottom one, the reverse of memory order: PSHUFD $0x1B on the way in and
// out. E lives alone in the top dword of an otherwise zero register.
#define ABCD	X0
#define E0	X1 // E ping-pongs between two registers: SHA1NEXTE derives the
#define E1	X2 // next group's E from the ABCD saved before this group's rounds.
#define MSG0	X3
#define MSG1	X4
#define MSG2	X5
#define MSG3	X6
#define FLIP	X7 // PSHUFB mask: a whole-register byte reversal
#define ABCD0	X8 // state at block entry, added back after round 79
#define E00	X9

// One interior group of four rounds (rounds 16…67): m0 holds the group's
// four schedule words; m1…m3 are the following three quads in the making.
#define ROUNDS4(f, m0, m1, m2, m3, ecur, enext) \
	SHA1NEXTE	m0, ecur; \
	MOVO		ABCD, enext; \
	SHA1MSG2	m0, m1; \
	SHA1RNDS4	$f, ecur, ABCD; \
	SHA1MSG1	m0, m3; \
	PXOR		m0, m2

// A 16-byte byte reversal turns a quad of big-endian words in memory order
// into SHA1RNDS4's layout: w[i] in the top dword, w[i+3] in the bottom.
DATA flipmask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA flipmask<>+8(SB)/8, $0x0001020304050607
GLOBL flipmask<>(SB), RODATA|NOPTR, $16

// func block(h *[5]uint32, p []byte)
//
// len(p) must be a positive multiple of 64.
TEXT ·block(SB), NOSPLIT, $0-32
	MOVQ	h+0(FP), DI
	MOVQ	p_base+8(FP), SI
	MOVQ	p_len+16(FP), DX
	ADDQ	SI, DX // end of input

	MOVOU	(DI), ABCD
	PSHUFD	$0x1B, ABCD, ABCD
	PXOR	E0, E0
	PINSRD	$3, 16(DI), E0
	MOVOU	flipmask<>(SB), FLIP

loop:
	MOVO	ABCD, ABCD0
	MOVO	E0, E00

	// Rounds 0-3
	MOVOU	(SI), MSG0
	PSHUFB	FLIP, MSG0
	PADDD	MSG0, E0
	MOVO	ABCD, E1
	SHA1RNDS4	$0, E0, ABCD

	// Rounds 4-7
	MOVOU	16(SI), MSG1
	PSHUFB	FLIP, MSG1
	SHA1NEXTE	MSG1, E1
	MOVO	ABCD, E0
	SHA1RNDS4	$0, E1, ABCD
	SHA1MSG1	MSG1, MSG0

	// Rounds 8-11
	MOVOU	32(SI), MSG2
	PSHUFB	FLIP, MSG2
	SHA1NEXTE	MSG2, E0
	MOVO	ABCD, E1
	SHA1RNDS4	$0, E0, ABCD
	SHA1MSG1	MSG2, MSG1
	PXOR	MSG2, MSG0

	// Rounds 12-15
	MOVOU	48(SI), MSG3
	PSHUFB	FLIP, MSG3
	SHA1NEXTE	MSG3, E1
	MOVO	ABCD, E0
	SHA1MSG2	MSG3, MSG0
	SHA1RNDS4	$0, E1, ABCD
	SHA1MSG1	MSG3, MSG2
	PXOR	MSG3, MSG1

	// Rounds 16-67: the round function changes every 20 rounds.
	ROUNDS4(0, MSG0, MSG1, MSG2, MSG3, E0, E1)
	ROUNDS4(1, MSG1, MSG2, MSG3, MSG0, E1, E0)
	ROUNDS4(1, MSG2, MSG3, MSG0, MSG1, E0, E1)
	ROUNDS4(1, MSG3, MSG0, MSG1, MSG2, E1, E0)
	ROUNDS4(1, MSG0, MSG1, MSG2, MSG3, E0, E1)
	ROUNDS4(1, MSG1, MSG2, MSG3, MSG0, E1, E0)
	ROUNDS4(2, MSG2, MSG3, MSG0, MSG1, E0, E1)
	ROUNDS4(2, MSG3, MSG0, MSG1, MSG2, E1, E0)
	ROUNDS4(2, MSG0, MSG1, MSG2, MSG3, E0, E1)
	ROUNDS4(2, MSG1, MSG2, MSG3, MSG0, E1, E0)
	ROUNDS4(2, MSG2, MSG3, MSG0, MSG1, E0, E1)
	ROUNDS4(3, MSG3, MSG0, MSG1, MSG2, E1, E0)
	ROUNDS4(3, MSG0, MSG1, MSG2, MSG3, E0, E1)

	// Rounds 68-71: the schedule runs out; no more SHA1MSG1.
	SHA1NEXTE	MSG1, E1
	MOVO	ABCD, E0
	SHA1MSG2	MSG1, MSG2
	SHA1RNDS4	$3, E1, ABCD
	PXOR	MSG1, MSG3

	// Rounds 72-75
	SHA1NEXTE	MSG2, E0
	MOVO	ABCD, E1
	SHA1MSG2	MSG2, MSG3
	SHA1RNDS4	$3, E0, ABCD

	// Rounds 76-79
	SHA1NEXTE	MSG3, E1
	MOVO	ABCD, E0
	SHA1RNDS4	$3, E1, ABCD

	// Add the block's entry state back in.
	SHA1NEXTE	E00, E0
	PADDD	ABCD0, ABCD

	ADDQ	$64, SI
	CMPQ	SI, DX
	JNE	loop

	PSHUFD	$0x1B, ABCD, ABCD
	MOVOU	ABCD, (DI)
	PEXTRD	$3, E0, 16(DI)
	RET

// func CPUID(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·CPUID(SB), NOSPLIT, $0-24
	MOVL	leaf+0(FP), AX
	MOVL	sub+4(FP), CX
	CPUID
	MOVL	AX, eax+8(FP)
	MOVL	BX, ebx+12(FP)
	MOVL	CX, ecx+16(FP)
	MOVL	DX, edx+20(FP)
	RET

// func XGETBV() (eax, edx uint32)
TEXT ·XGETBV(SB), NOSPLIT, $0-8
	MOVL	$0, CX
	XGETBV
	MOVL	AX, eax+0(FP)
	MOVL	DX, edx+4(FP)
	RET
