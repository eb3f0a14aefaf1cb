//go:build !race

package tensor

const raceDetector = false
