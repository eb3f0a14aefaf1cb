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

// CallNNZ bounds the non-zeros (leaves, for a tree body) one call of an
// assembly body covers. The runtime cannot preempt assembly, so a
// stop-the-world waits for the running call to return; cutting a range
// into calls of at most 2^16 non-zeros (about 0.5 ms of Mttkrp at 7 ns
// per non-zero on a 2-vCPU x86-64 host) bounds that wait whatever the
// tensor's size.
const CallNNZ = 1 << 16

// Cut returns the end of the next call over units [lo, hi), unit u holding
// non-zeros [ptr[u], ptr[u+1]): hi if they fit in CallNNZ, else the last
// unit boundary within CallNNZ of ptr[lo], or lo+1 when unit lo alone
// holds more, for a unit longer than the budget is a call of its own.
func Cut(ptr []int64, lo, hi int) int {
	limit := ptr[lo] + CallNNZ
	if ptr[hi] <= limit {
		return hi
	}
	i, j := lo+2, hi // the first boundary past the limit is in [lo+2, hi]
	for i < j {
		if m := int(uint(i+j) >> 1); ptr[m] > limit {
			j = m
		} else {
			i = m + 1
		}
	}
	return i - 1
}
