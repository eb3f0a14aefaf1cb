package cpu

import (
	"math/rand"
	"testing"
)

// linearCut is Cut by a scan from lo: the last boundary at most CallNNZ
// non-zeros past ptr[lo], at least lo+1.
func linearCut(ptr []int64, lo, hi int) int {
	end := lo + 1
	for b := lo + 2; b <= hi && ptr[b] <= ptr[lo]+CallNNZ; b++ {
		end = b
	}
	return end
}

func TestCut(t *testing.T) {
	const n = CallNNZ
	for _, c := range []struct {
		name   string
		ptr    []int64
		lo, hi int
		want   int
	}{
		{"within the budget", []int64{0, 10, 20, n}, 0, 3, 3},
		{"one unit", []int64{0, n}, 0, 1, 1},
		{"one unit longer than the budget", []int64{0, n + 1, n + 2}, 0, 2, 1},
		{"longer unit alone", []int64{0, n + 1}, 0, 1, 1},
		{"boundary at the limit", []int64{0, 5, n, n + 1, n + 7}, 0, 4, 2},
		{"boundary one past the limit", []int64{0, 5, n + 1, n + 2}, 0, 3, 1},
		{"lo > 0 within the budget", []int64{0, 100, 200, n + 100}, 1, 3, 3},
		{"lo > 0 at the limit", []int64{0, 100, 200, n + 100, n + 101}, 1, 4, 3},
		{"lo > 0 past the limit", []int64{0, 100, n + 101, n + 102}, 1, 3, 2},
		{"empty units", []int64{7, 7, 7, n + 7, n + 7, n + 8}, 0, 5, 4},
	} {
		if got := Cut(c.ptr, c.lo, c.hi); got != c.want {
			t.Errorf("%s: Cut(%v, %d, %d) = %d, want %d", c.name, c.ptr, c.lo, c.hi, got, c.want)
		}
		if got := linearCut(c.ptr, c.lo, c.hi); got != c.want {
			t.Errorf("%s: the linear scan gives %d, want %d", c.name, got, c.want)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		ptr := make([]int64, 1+rng.Intn(40))
		unit := 1 + rng.Int63n(n/2)
		for i := 1; i < len(ptr); i++ {
			ptr[i] = ptr[i-1] + rng.Int63n(unit)
		}
		if len(ptr) < 2 {
			continue
		}
		lo := rng.Intn(len(ptr) - 1)
		hi := lo + 1 + rng.Intn(len(ptr)-1-lo)
		if got, want := Cut(ptr, lo, hi), linearCut(ptr, lo, hi); got != want {
			t.Fatalf("Cut(%v, %d, %d) = %d, the linear scan gives %d", ptr, lo, hi, got, want)
		}
	}
}
