#include "textflag.h"

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	CPUID                  // EAX: the highest standard leaf
	CMPL  AX, $7
	JLT   no
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	NOTL  CX
	TESTL $0x18000000, CX  // OSXSAVE (bit 27) and AVX (bit 28)
	JNE   no
	XORL  CX, CX
	XGETBV                 // XCR0: the OS saves XMM (bit 1) and YMM (bit 2) state
	NOTL  AX
	TESTB $6, AL
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	BTL   $5, BX           // AVX2: leaf 7, EBX bit 5
	SETCS ret+0(FP)
no:
	RET
