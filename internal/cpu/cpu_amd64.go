package cpu

// hasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state
// (CPUID and XGETBV).
func hasAVX2() bool
