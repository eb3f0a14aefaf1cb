//go:build !race

package tensortest

const Race = false
