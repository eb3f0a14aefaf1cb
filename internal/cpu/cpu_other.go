//go:build !amd64

package cpu

// hasAVX2 is false on a port without assembly bodies: their callers run
// the Go loops.
func hasAVX2() bool { return false }
