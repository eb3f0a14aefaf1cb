package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/hicoo"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/tensortest"
)

// specialValues are the classes the element-wise bodies must round like
// the Go loops: signed zeros (and so x/0), subnormals, values whose sums
// and products overflow to ±Inf, infinities and NaN.
var specialValues = []tensor.Value{
	0, tensor.Value(math.Copysign(0, -1)), 1e-45, -3e-39, 1e38, -1e38, 3e38,
	tensor.Value(math.Inf(1)), tensor.Value(math.Inf(-1)), tensor.Value(math.NaN()),
}

// saltedValues returns n normal values with about one in four replaced by
// a special value.
func saltedValues(rng *rand.Rand, n int) []tensor.Value {
	v := make([]tensor.Value, n)
	for i := range v {
		v[i] = tensor.Value(rng.NormFloat64())
		if rng.Intn(4) == 0 {
			v[i] = specialValues[rng.Intn(len(specialValues))]
		}
	}
	return v
}

// sameValues fails unless got and want hold the same bits, NaN for NaN.
func sameValues(t *testing.T, label string, got, want []tensor.Value) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if w != w {
			if g == g {
				t.Fatalf("%s: element %d is %v, the Go loop gives NaN", label, i, g)
			}
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s: element %d is %v (%#x), the Go loop gives %v (%#x)", label, i,
				g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// elementwiseRanges are the [lo, hi) sub-ranges of n values a test runs:
// the whole, then chunk entries whose lo is not a multiple of 8.
func elementwiseRanges(n int) [][2]int {
	rs := [][2]int{{0, n}}
	for _, lo := range []int{3, 13, 37} {
		if lo < n {
			rs = append(rs, [2]int{lo, n}, [2]int{lo, lo + (n-lo)*2/3})
		}
	}
	return rs
}

// TestElementwiseBodiesMatchGo holds the assembly bodies of tewValues (all
// four ops) and tsValues (Add, Mul; scalars from every value class) to
// the Go loops bit for bit: every length 0–70, lengths around a 4096
// chunk and 40 001, whole ranges and sub-ranges entered at lo ≢ 0 mod 8.
// Values outside the range must stay as they were.
func TestElementwiseBodiesMatchGo(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("no AVX2 body on this CPU or port")
	}
	rng := rand.New(rand.NewSource(28))
	var lengths []int
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 4095, 4096, 4097, 40001)
	run := func(asm bool, n int, f func(zv []tensor.Value)) []tensor.Value {
		zv := make([]tensor.Value, n)
		for i := range zv {
			zv[i] = -7 // a sentinel outside every range
		}
		tensortest.WithAVX2(asm, func() { f(zv) })
		return zv
	}
	for _, n := range lengths {
		xv, yv := saltedValues(rng, n), saltedValues(rng, n)
		for _, rg := range elementwiseRanges(n) {
			lo, hi := rg[0], rg[1]
			for _, op := range []Op{Add, Sub, Mul, Div} {
				f := func(zv []tensor.Value) { tewValues(xv, yv, zv, op, lo, hi) }
				sameValues(t, fmt.Sprintf("Tew %v n %d [%d, %d)", op, n, lo, hi), run(true, n, f), run(false, n, f))
			}
			for _, op := range []Op{Add, Mul} {
				for _, s := range append([]tensor.Value{2.5, -0.75}, specialValues...) {
					f := func(zv []tensor.Value) { tsValues(xv, zv, s, op, lo, hi) }
					sameValues(t, fmt.Sprintf("Ts %v %v n %d [%d, %d)", op, s, n, lo, hi), run(true, n, f), run(false, n, f))
				}
			}
		}
	}
}

// elementwisePlans prepares the four element-wise plans of every op over
// one same-pattern pair with salted values, each with an execute function
// that returns its (plan-owned) output values.
func elementwisePlans(t testing.TB, nnz int) map[string]func(omp bool, opt parallel.Options) []tensor.Value {
	rng := rand.New(rand.NewSource(int64(nnz)))
	x := randTensor(int64(nnz)+1, []tensor.Index{90, 80, 70}, nnz)
	y := x.Clone()
	x.Vals, y.Vals = saltedValues(rng, x.NNZ()), saltedValues(rng, x.NNZ())
	hx, hy := hicoo.FromCOO(x, hicoo.DefaultBlockBits), hicoo.FromCOO(y, hicoo.DefaultBlockBits)
	plans := map[string]func(bool, parallel.Options) []tensor.Value{}
	for _, op := range []Op{Add, Sub, Mul, Div} {
		p, err := PrepareTew(x, y, op)
		if err != nil {
			t.Fatal(err)
		}
		hp, err := PrepareTewHiCOO(hx, hy, op)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := PrepareTs(x, 1.5, op)
		if err != nil {
			t.Fatal(err)
		}
		shp, err := PrepareTsHiCOO(hx, 1.5, op)
		if err != nil {
			t.Fatal(err)
		}
		plans["TewPlan/"+op.String()] = func(omp bool, opt parallel.Options) []tensor.Value {
			if omp {
				return p.ExecuteOMP(opt).Vals
			}
			return p.ExecuteSeq().Vals
		}
		plans["TewHiCOOPlan/"+op.String()] = func(omp bool, opt parallel.Options) []tensor.Value {
			if omp {
				return hp.ExecuteOMP(opt).Vals
			}
			return hp.ExecuteSeq().Vals
		}
		plans["TsPlan/"+op.String()] = func(omp bool, opt parallel.Options) []tensor.Value {
			if omp {
				return sp.ExecuteOMP(opt).Vals
			}
			return sp.ExecuteSeq().Vals
		}
		plans["TsHiCOOPlan/"+op.String()] = func(omp bool, opt parallel.Options) []tensor.Value {
			if omp {
				return shp.ExecuteOMP(opt).Vals
			}
			return shp.ExecuteSeq().Vals
		}
	}
	return plans
}

// TestElementwisePlansMatchGo runs the four element-wise plans through
// ExecuteOMP under a cancellable context, which chunks the range (at most
// 4096 values a chunk, most of them entered at lo ≢ 0 mod 32), on the
// assembly bodies, against ExecuteSeq on the Go loops.
func TestElementwisePlansMatchGo(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("no AVX2 body on this CPU or port")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, nnz := range []int{1000, 40001, 100003} {
		for name, exec := range elementwisePlans(t, nnz) {
			var want []tensor.Value
			tensortest.WithAVX2(false, func() { want = append(want, exec(false, parallel.Options{})...) })
			for _, threads := range []int{1, 2} {
				var got []tensor.Value
				tensortest.WithAVX2(true, func() { got = exec(true, parallel.Options{Threads: threads, Ctx: ctx, Schedule: parallel.Dynamic}) })
				sameValues(t, fmt.Sprintf("%s nnz %d threads %d", name, nnz, threads), got, want)
			}
		}
	}
}

// TestElementwisePlansAllocs pins the allocations of the element-wise
// plans on both bodies: none per ExecuteSeq, and per one-thread
// ExecuteOMP only the loop's closure and its control block.
func TestElementwisePlansAllocs(t *testing.T) {
	if tensortest.Race {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, exec := range elementwisePlans(t, 5000) {
		for _, asm := range tensortest.BodySides() {
			tensortest.WithAVX2(asm, func() {
				if n := testing.AllocsPerRun(10, func() { exec(false, parallel.Options{}) }); n != 0 {
					t.Errorf("%s asm %v: ExecuteSeq allocates %v times per call, want 0", name, asm, n)
				}
				for _, opt := range []parallel.Options{{Threads: 1}, {Threads: 1, Ctx: ctx}} {
					if n := testing.AllocsPerRun(10, func() { exec(true, opt) }); n != 2 {
						t.Errorf("%s asm %v ctx %v: ExecuteOMP allocates %v times per call, want 2", name, asm, opt.Ctx != nil, n)
					}
				}
			})
		}
	}
}

// BenchmarkElementwise times tewValues (Add) and tsValues (Mul) over n
// values on the Go loops and on the assembly bodies, and reports them per
// element. Run it with -cpu 1.
func BenchmarkElementwise(b *testing.B) {
	for _, n := range []int{5000, 40000, 100000, 300000} {
		rng := rand.New(rand.NewSource(int64(n)))
		xv, yv, zv := make([]tensor.Value, n), make([]tensor.Value, n), make([]tensor.Value, n)
		for i := range xv {
			xv[i], yv[i] = tensor.Value(rng.Float64()), tensor.Value(1+rng.Float64())
		}
		for _, kernel := range []struct {
			name string
			run  func()
		}{
			{"Tew", func() { tewValues(xv, yv, zv, Add, 0, n) }},
			{"Ts", func() { tsValues(xv, zv, 1.5, Mul, 0, n) }},
		} {
			tensortest.BenchSides(b, fmt.Sprintf("%s/n=%d", kernel.name, n), n, "elem", func() error {
				kernel.run()
				return nil
			})
		}
	}
}
