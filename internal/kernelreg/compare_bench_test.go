package kernelreg

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/tensortest"
)

// BenchmarkCompare times one output check, CanonOf of both sides plus
// Compare, on an order-3 COO pair of 300 000 non-zeros in shuffled and
// in natural order (the second side's values perturbed, neither side
// knowing its order), and on a 20 000 × 16 matrix pair.
func BenchmarkCompare(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandomCOO([]tensor.Index{4000, 3000, 2000}, 300_000, rng)
	y := x.Clone()
	for i := range y.Vals {
		y.Vals[i] *= 1 + tensor.Value(rng.Float64())*1e-4
	}
	natural := func(t *tensor.COO) *tensor.COO {
		s := t.Clone()
		s.SortNatural()
		return &tensor.COO{Dims: s.Dims, Inds: s.Inds, Vals: s.Vals} // order not recorded
	}
	m, n := tensor.NewMatrix(20_000, 16), tensor.NewMatrix(20_000, 16)
	for i := range m.Data {
		m.Data[i] = tensor.Value(rng.NormFloat64())
		n.Data[i] = m.Data[i] * (1 + tensor.Value(rng.Float64())*1e-4)
	}
	for _, c := range []struct {
		name string
		a, b any
	}{
		{"coo-300k-shuffled", tensortest.Shuffled(x, 2), tensortest.Shuffled(y, 3)},
		{"coo-300k-natural", natural(x), natural(y)},
		{"matrix-20000x16", m, n},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if d := Compare(CanonOf(c.a), CanonOf(c.b)); d > 1e-3 {
					b.Fatalf("deviation %g", d)
				}
			}
		})
	}
}
