//go:build !amd64

package core

// The element-wise bodies have no assembly on this port: cpu.AVX2 stays
// false and tewValues and tsValues run their Go loops.

func tewAVX2(z, x, y []float32, op Op) { panic("core: no assembly body on this port") }

func tsAVX2(z, x []float32, s float32, op Op) { panic("core: no assembly body on this port") }
