//go:build !race

package kernelreg

const raceDetector = false
