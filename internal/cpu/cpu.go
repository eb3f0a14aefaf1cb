// Package cpu probes the processor once, at start-up, for the
// instruction-set extensions the assembly bodies of the kernels need
// (DESIGN.md §20, "SIMD bodies"). Every package with such a body reads
// its flag here, so the codebase holds one probe.
package cpu

// AVX2 reports whether the CPU has AVX2 and the OS saves YMM state. It is
// false on ports without assembly bodies. The bodies' callers read it on
// every call, so a test sets it to false to run the Go loops, which are
// the fallback and the oracle, and restores it afterwards.
var AVX2 = hasAVX2()
