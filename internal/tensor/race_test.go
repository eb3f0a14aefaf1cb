//go:build race

package tensor

// raceDetector reports that the test binary was built with -race, under
// which allocation counts are not the program's own.
const raceDetector = true
