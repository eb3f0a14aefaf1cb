package core

// tewAVX2 sets z[i] = x[i] op y[i] for i < len(z)&^31, and writes nothing
// for an unknown op. x and y must be as long as z, at least 32; it indexes
// without bounds checks.
//
//go:noescape
func tewAVX2(z, x, y []float32, op Op)

// tsAVX2 sets z[i] = x[i] + s for op Add and x[i] * s otherwise, for
// i < len(z)&^31. x must be as long as z, at least 32; it indexes without
// bounds checks.
//
//go:noescape
func tsAVX2(z, x []float32, s float32, op Op)
