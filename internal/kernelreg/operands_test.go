package kernelreg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestOperandsMatchMathRand holds the operands drawn through
// tensor.Uniform to the math/rand forms they replaced, bit for bit:
// FactorMats (one stream across the modes, as one rand.Rand filled every
// matrix with Randomize), the workbench's TtmMat (Randomize from seed
// mode+100) and ModeVector (RandomVector from seed mode).
func TestOperandsMatchMathRand(t *testing.T) {
	dims := []tensor.Index{3000, 700, 51}
	const r = 16
	sameBits := func(name string, got, want []tensor.Value) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: value %d = %v, math/rand gives %v", name, i, got[i], want[i])
			}
		}
	}
	rng := rand.New(rand.NewSource(777))
	for n, m := range FactorMats(dims, r) {
		want := tensor.NewMatrix(int(dims[n]), r)
		want.Randomize(rng)
		sameBits(fmt.Sprintf("FactorMats mode %d", n), m.Data, want.Data)
	}
	wb := NewWorkbench(tensor.RandomCOO(dims, 500, rand.New(rand.NewSource(1))), DefaultConfig())
	for mode := range dims {
		want := tensor.NewMatrix(int(dims[mode]), wb.cfg.R)
		want.Randomize(rand.New(rand.NewSource(int64(mode) + 100)))
		sameBits(fmt.Sprintf("TtmMat(%d)", mode), wb.TtmMat(mode).Data, want.Data)
		vec := tensor.RandomVector(int(dims[mode]), rand.New(rand.NewSource(int64(mode))))
		sameBits(fmt.Sprintf("ModeVector(%d)", mode), ModeVector(dims, mode), vec)
	}
}
