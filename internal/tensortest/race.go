//go:build race

package tensortest

// Race reports a test binary built with -race, under which allocation
// counts are not the program's own.
const Race = true
