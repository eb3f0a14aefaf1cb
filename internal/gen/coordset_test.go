package gen

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestCoordSetAgreesWithMap holds the packed set to a map of
// coordinates: one-word keys, two- and three-word keys (one with a mode
// split across two words), single-row modes (no bits), the origin, and
// streams with many repeats.
func TestCoordSetAgreesWithMap(t *testing.T) {
	for _, dims := range [][]tensor.Index{
		{1, 1},
		{5, 1, 7},
		{300, 200, 100},
		{1 << 20, 1 << 30, 1 << 25, 7}, // mode 2 straddles words 0 and 1
		{4e9, 4e9, 4e9, 4e9, 4e9},
	} {
		rng := rand.New(rand.NewSource(int64(len(dims))))
		const n = 3000
		s := newCoordSet(dims, n)
		seen := map[string]bool{}
		idx := make([]tensor.Index, len(dims))
		for attempt := 0; attempt < 4*n && len(seen) < n; attempt++ {
			for m, d := range dims {
				switch rng.Intn(5) {
				case 0:
					idx[m] = 0
				case 1:
					idx[m] = d - 1
				case 2:
					idx[m] = tensor.Index(rng.Int63n(int64(d)))
				default:
					idx[m] = tensor.Index(rng.Int63n(int64(min(d, 8))))
				}
			}
			key := fmt.Sprint(idx)
			if got, want := s.add(idx), !seen[key]; got != want {
				t.Fatalf("dims %v: add(%v) = %v, want %v", dims, idx, got, want)
			}
			seen[key] = true
		}
	}
}
