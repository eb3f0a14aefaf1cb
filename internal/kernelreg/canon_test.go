package kernelreg

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/hicoo"
	"repro/internal/roofline"
	"repro/internal/tensor"
	"repro/internal/tensortest"
)

// mapCanon is the coordinate→value form Canon had before it became a
// sorted tensor: duplicate coordinates accumulate in float64 in stored
// order, sparse outputs are keyed by fmt.Sprint of the coordinate and
// dense ones by "r%d,c%d" of each non-zero entry. It is the oracle
// Compare is held to.
type mapCanon map[string]float64

// mapCanonOf converts an output object into map form; nil and unknown
// outputs (typed nils included) give nil.
func mapCanonOf(out any) mapCanon {
	switch o := out.(type) {
	case *tensor.COO:
		if o != nil {
			return mapCooCanon(o)
		}
	case *hicoo.HiCOO:
		if o != nil {
			return mapCooCanon(o.ToCOO())
		}
	case *tensor.SemiCOO:
		if o != nil {
			return mapCooCanon(o.ToCOO())
		}
	case *hicoo.SemiHiCOO:
		if o != nil {
			return mapCooCanon(o.ToSemiCOO().ToCOO())
		}
	case *tensor.Matrix:
		if o == nil {
			return nil
		}
		m := make(mapCanon, len(o.Data))
		for i := 0; i < o.Rows; i++ {
			row := o.Row(i)
			for j, v := range row {
				if v != 0 {
					m[fmt.Sprintf("r%d,c%d", i, j)] += float64(v)
				}
			}
		}
		return m
	}
	return nil
}

func mapCooCanon(t *tensor.COO) mapCanon {
	m := make(mapCanon, t.NNZ())
	idx := make([]tensor.Index, t.Order())
	for x := 0; x < t.NNZ(); x++ {
		v := t.Entry(x, idx)
		m[fmt.Sprint(idx)] += float64(v)
	}
	return m
}

// mapCompare is the map form's Compare: the worst mapRelDev over the
// union of the two key sets, a missing key comparing against 0.
func mapCompare(a, b mapCanon) float64 {
	var worst float64
	for k, av := range a {
		if d := mapRelDev(av, b[k]); d > worst {
			worst = d
		}
	}
	for k, bv := range b {
		if _, ok := a[k]; !ok {
			if d := mapRelDev(0, bv); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// mapRelDev is the relative deviation as the map form computed it.
func mapRelDev(a, b float64) float64 {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return d / scale
}

// canonObject returns the output object a Canon holds (nil for nil),
// for the oracle to convert.
func canonObject(c Canon) any {
	switch {
	case c == nil:
		return nil
	case c.mat != nil:
		return c.mat
	}
	return c.coo
}

// allFinite reports whether every value an output object holds is finite.
func allFinite(out any) bool {
	var vals []tensor.Value
	switch c := CanonOf(out); {
	case c == nil:
	case c.mat != nil:
		vals = c.mat.Data
	default:
		vals = c.coo.Vals
	}
	for _, v := range vals {
		if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// checkAgainstOracle fails unless Compare on the two outputs equals the
// map oracle's deviation exactly when both hold finite values only, and
// is +Inf otherwise.
func checkAgainstOracle(t *testing.T, label string, a, b any) {
	t.Helper()
	got := Compare(CanonOf(a), CanonOf(b))
	if !allFinite(a) || !allFinite(b) {
		if !math.IsInf(got, 1) {
			t.Fatalf("%s: Compare over a non-finite value = %v, want +Inf", label, got)
		}
		return
	}
	if want := mapCompare(mapCanonOf(a), mapCanonOf(b)); got != want {
		t.Fatalf("%s: Compare = %v (%016x), map oracle %v (%016x)", label, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// comparePairs returns output pairs built from x: itself, shuffled,
// perturbed, with values split over duplicate entries, against nothing,
// against a tensor of another order, against a matrix, and as HiCOO.
func comparePairs(x *tensor.COO, seed int64) [][2]any {
	rng := rand.New(rand.NewSource(seed))
	perturbed := tensortest.Shuffled(x, seed)
	for i := range perturbed.Vals {
		switch rng.Intn(4) {
		case 0:
			perturbed.Vals[i] *= 1 + tensor.Value(rng.Float64())*1e-3
		case 1:
			perturbed.Vals[i] = tensor.Value(rng.NormFloat64() * 100)
		}
	}
	split := tensor.NewCOO(x.Dims, x.NNZ())
	idx := make([]tensor.Index, x.Order())
	for i := 0; i < x.NNZ(); i++ {
		v := x.Entry(i, idx)
		if i%3 == 0 {
			part := v * tensor.Value(rng.Float64())
			split.Append(idx, part)
			v -= part
		}
		split.Append(idx, v)
	}
	lower := &tensor.COO{Dims: x.Dims[1:], Inds: x.Inds[1:], Vals: x.Vals}
	m := tensor.NewMatrix(7, 5)
	for i := range m.Data {
		m.Data[i] = tensor.Value(rng.NormFloat64())
	}
	pairs := [][2]any{
		{x, x}, {x, tensortest.Shuffled(x, seed+1)}, {x, perturbed}, {perturbed, x},
		{x, tensortest.Shuffled(split, seed+2)}, {x, nil}, {nil, x}, {x, (*tensor.COO)(nil)},
		{x, m}, {m, x},
	}
	if x.Order() > 1 {
		pairs = append(pairs, [2]any{x, lower}, [2]any{lower, perturbed})
	}
	if x.Order() > 1 && x.NNZ() > 0 {
		pairs = append(pairs, [2]any{hicoo.FromCOO(perturbed, 2), x})
	}
	return pairs
}

// TestCompareMatchesMapOracle holds Compare to the map form it replaced:
// the same float64 deviation, bit for bit, over the conversion corpus's
// tensors paired with shuffled, perturbed, duplicate-split, nil,
// other-order and other-kind outputs, over matrices of equal and unequal
// shapes, and over every registered cell's output against its reference,
// plus the generic HiCOO-signature cells, whose Ttv outputs hold
// duplicates.
func TestCompareMatchesMapOracle(t *testing.T) {
	for i, c := range tensortest.Corpus(t) {
		for j, p := range comparePairs(c.X, int64(i)) {
			checkAgainstOracle(t, fmt.Sprintf("%s pair %d", c.Name, j), p[0], p[1])
		}
	}

	rng := rand.New(rand.NewSource(3))
	mat := func(rows, cols int) *tensor.Matrix {
		m := tensor.NewMatrix(rows, cols)
		for i := range m.Data {
			if rng.Intn(5) > 0 {
				m.Data[i] = tensor.Value(rng.NormFloat64() * 3)
			}
		}
		return m
	}
	a, b := mat(40, 16), mat(40, 16)
	for j, p := range [][2]any{{a, a}, {a, b}, {a, mat(30, 16)}, {mat(40, 9), a}, {a, nil}, {nil, a}, {a, (*tensor.Matrix)(nil)}, {nil, nil}} {
		checkAgainstOracle(t, fmt.Sprintf("matrix pair %d", j), p[0], p[1])
	}

	x := tensor.RandomCOO([]tensor.Index{300, 40, 260}, 1000, rand.New(rand.NewSource(8)))
	cfg := DefaultConfig()
	cfg.R = 5
	wb := NewWorkbench(x, cfg)
	ctx := context.Background()
	refs := map[refKey]mapCanon{}
	duplicates := false
	check := func(label string, k roofline.Kernel, mode int, prep func() (*Instance, error)) {
		ref, err := wb.Reference(ctx, k, mode)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := refs[refKey{k, mode}]; !ok {
			refs[refKey{k, mode}] = mapCanonOf(canonObject(ref))
		}
		inst, err := prep()
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Run(ctx); err != nil {
			t.Fatal(err)
		}
		canon, oracle := inst.Output(), mapCanonOf(inst.out())
		if got, want := Compare(canon, ref), mapCompare(oracle, refs[refKey{k, mode}]); got != want {
			t.Fatalf("%s mode %d: Compare = %v (%016x), map oracle %v (%016x)", label, mode, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		duplicates = duplicates || canon != nil && canon.coo != nil && len(oracle) < canon.coo.NNZ()
	}
	for _, v := range All() {
		for mode := 0; mode < v.Modes(x); mode++ {
			check(v.String(), v.Kernel, mode, func() (*Instance, error) { return v.Prepare(wb, mode) })
		}
	}
	// The generic HiCOO-signature cells, whose Ttv outputs hold a
	// coordinate once per product-mode block.
	for _, k := range genericKernels {
		prep := genericPrep(k, roofline.HiCOO)
		for mode := 0; mode < x.Order(); mode++ {
			check(fmt.Sprintf("generic %s/HiCOO", k), k, mode, func() (*Instance, error) { return prep(wb, mode, OMP) })
		}
	}
	if !duplicates {
		t.Fatal("no cell's output held a coordinate twice: the walk's run sums went untested")
	}
}

// TestCompareNonFiniteIsInf checks that a NaN or an infinity on either
// side, in a sparse or a dense output, deviates by +Inf: the map form
// dropped a NaN deviation (d > worst is false) and turned Inf against a
// finite value into Inf/Inf = NaN, so such outputs read as a match.
func TestCompareNonFiniteIsInf(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := tensor.NewCOO([]tensor.Index{4, 4}, 3)
		x.Append([]tensor.Index{0, 1}, 1)
		x.Append([]tensor.Index{2, 3}, 2)
		y := x.Clone()
		y.Vals[1] = tensor.Value(bad)
		m := tensor.NewMatrix(3, 2)
		n := tensor.NewMatrix(3, 2)
		n.Data[4] = tensor.Value(bad)
		for j, p := range [][2]any{{x, y}, {y, x}, {y, y}, {y, nil}, {m, n}, {n, m}, {n, x}} {
			if d := Compare(CanonOf(p[0]), CanonOf(p[1])); !math.IsInf(d, 1) {
				t.Errorf("%v pair %d: Compare = %v, want +Inf", bad, j, d)
			}
		}
	}
}

// FuzzCompare checks Compare against the map oracle on two outputs drawn
// from the input: a COO of order 1–3 over a few indices (so coordinates
// collide and repeat), a matrix, or nothing, each.
func FuzzCompare(f *testing.F) {
	f.Add([]byte{2, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3}, []byte{2, 2, 3, 2, 1, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 3, 1, 1, 1, 1, 2, 2}, []byte{4, 3, 2, 9, 9, 9})
	f.Add([]byte{0}, []byte{3, 1, 0, 127, 1, 128})
	f.Fuzz(func(t *testing.T, ra, rb []byte) {
		a, b := fuzzOutput(ra), fuzzOutput(rb)
		checkAgainstOracle(t, "fuzz", a, b)
	})
}

// fuzzOutput decodes raw into an output: raw[0] mod 5 picks nil (0), a
// COO of that order (1–3) or a matrix (4); raw[1] mod 8 + 1 bounds the
// indices (the matrix's rows). The rest are, for a COO, records of
// coordinates then one value byte, for a matrix its values in row-major
// order; value byte 127 is NaN and 128 +Inf.
func fuzzOutput(raw []byte) any {
	if len(raw) < 2 || raw[0]%5 == 0 {
		return nil
	}
	kind, span, raw := int(raw[0]%5), int(raw[1]%8)+1, raw[2:]
	value := func(c byte) tensor.Value {
		switch c {
		case 127:
			return tensor.Value(math.NaN())
		case 128:
			return tensor.Value(math.Inf(1))
		}
		return tensor.Value(int8(c)) / 8
	}
	if kind == 4 {
		m := tensor.NewMatrix(span, (len(raw)+span-1)/span)
		for i, c := range raw {
			m.Data[i] = value(c)
		}
		return m
	}
	dims := make([]tensor.Index, kind)
	for n := range dims {
		dims[n] = tensor.Index(span)
	}
	x := tensor.NewCOO(dims, 0)
	idx := make([]tensor.Index, kind)
	for i := 0; i+kind < len(raw); i += kind + 1 {
		for n := range idx {
			idx[n] = tensor.Index(int(raw[i+n]) % span)
		}
		x.Append(idx, value(raw[i+kind]))
	}
	return x
}
