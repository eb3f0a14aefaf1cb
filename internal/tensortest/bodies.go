package tensortest

import "repro/internal/cpu"

// BodySides returns the values of cpu.AVX2 a test compares the kernels
// under: false (the Go loops, the oracle), and true where the host has the
// assembly bodies.
func BodySides() []bool {
	if cpu.AVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

// WithAVX2 runs f with cpu.AVX2 set to on and restores it afterwards.
func WithAVX2(on bool, f func()) {
	defer func(was bool) { cpu.AVX2 = was }(cpu.AVX2)
	cpu.AVX2 = on
	f()
}
