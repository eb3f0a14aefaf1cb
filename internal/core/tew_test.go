package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hicoo"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/tensortest"
)

// samePatternPair returns two tensors sharing a non-zero pattern with
// independent values in (0,1].
func samePatternPair(seed int64, dims []tensor.Index, nnz int) (*tensor.COO, *tensor.COO) {
	x := randTensor(seed, dims, nnz)
	y := x.Clone()
	rng := rand.New(rand.NewSource(seed + 1000))
	for i := range y.Vals {
		y.Vals[i] = tensor.Value(1 - rng.Float64())
	}
	return x, y
}

func TestTewSamePatternAllOps(t *testing.T) {
	x, y := samePatternPair(1, []tensor.Index{10, 12, 14}, 300)
	for _, op := range []Op{Add, Sub, Mul, Div} {
		p, err := PrepareTew(x, y, op)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if !p.SamePattern {
			t.Fatalf("%v: expected same-pattern fast path", op)
		}
		z := p.ExecuteSeq()
		if z.NNZ() != x.NNZ() {
			t.Fatalf("%v: output nnz %d, want %d", op, z.NNZ(), x.NNZ())
		}
		for i := range z.Vals {
			want := op.Apply(x.Vals[i], y.Vals[i])
			if z.Vals[i] != want {
				t.Fatalf("%v: entry %d = %v, want %v", op, i, z.Vals[i], want)
			}
		}
	}
}

func TestTewShapeMismatch(t *testing.T) {
	x := randTensor(2, []tensor.Index{4, 4}, 5)
	y := randTensor(3, []tensor.Index{4, 5}, 5)
	if _, err := PrepareTew(x, y, Add); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestTewDifferentPatternUnion(t *testing.T) {
	x := tensor.NewCOO([]tensor.Index{4, 4}, 3)
	x.Append([]tensor.Index{0, 0}, 1)
	x.Append([]tensor.Index{1, 1}, 2)
	y := tensor.NewCOO([]tensor.Index{4, 4}, 3)
	y.Append([]tensor.Index{1, 1}, 10)
	y.Append([]tensor.Index{2, 2}, 20)

	z, err := Tew(x, y, Add)
	if err != nil {
		t.Fatal(err)
	}
	if z.NNZ() != 3 {
		t.Fatalf("union nnz = %d, want 3", z.NNZ())
	}
	checks := map[[2]tensor.Index]tensor.Value{
		{0, 0}: 1, {1, 1}: 12, {2, 2}: 20,
	}
	for k, want := range checks {
		if v, ok := z.At(k[0], k[1]); !ok || v != want {
			t.Fatalf("Add at %v = %v,%v want %v", k, v, ok, want)
		}
	}

	zs, err := Tew(x, y, Sub)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := zs.At(1, 1); v != -8 {
		t.Fatalf("Sub at (1,1) = %v, want -8", v)
	}
	if v, _ := zs.At(2, 2); v != -20 {
		t.Fatalf("Sub at (2,2) = %v, want -20", v)
	}
}

func TestTewDifferentPatternIntersection(t *testing.T) {
	x := tensor.NewCOO([]tensor.Index{4, 4}, 2)
	x.Append([]tensor.Index{0, 0}, 3)
	x.Append([]tensor.Index{1, 1}, 8)
	y := tensor.NewCOO([]tensor.Index{4, 4}, 2)
	y.Append([]tensor.Index{1, 1}, 2)
	y.Append([]tensor.Index{3, 3}, 7)

	zm, err := Tew(x, y, Mul)
	if err != nil {
		t.Fatal(err)
	}
	if zm.NNZ() != 1 {
		t.Fatalf("Mul intersection nnz = %d, want 1", zm.NNZ())
	}
	if v, _ := zm.At(1, 1); v != 16 {
		t.Fatalf("Mul at (1,1) = %v, want 16", v)
	}

	zd, err := Tew(x, y, Div)
	if err != nil {
		t.Fatal(err)
	}
	if zd.NNZ() != 1 {
		t.Fatalf("Div intersection nnz = %d, want 1", zd.NNZ())
	}
	if v, _ := zd.At(1, 1); v != 4 {
		t.Fatalf("Div at (1,1) = %v, want 4", v)
	}
}

func TestTewOMPAndGPUAgreeWithSeq(t *testing.T) {
	x, y := samePatternPair(4, []tensor.Index{30, 20, 25}, 2000)
	for _, op := range []Op{Add, Mul} {
		p, err := PrepareTew(x, y, op)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]tensor.Value(nil), p.ExecuteSeq().Vals...)
		for _, sched := range []parallel.Schedule{parallel.Static, parallel.Dynamic, parallel.Guided} {
			got := p.ExecuteOMP(parallel.Options{Schedule: sched})
			for i := range want {
				if got.Vals[i] != want[i] {
					t.Fatalf("OMP(%v) entry %d differs", sched, i)
				}
			}
		}
		got := p.ExecuteGPU(testDevice())
		for i := range want {
			if got.Vals[i] != want[i] {
				t.Fatalf("GPU entry %d differs", i)
			}
		}
	}
}

func TestTewGPUDifferentPattern(t *testing.T) {
	x := randTensor(5, []tensor.Index{20, 20}, 150)
	y := randTensor(6, []tensor.Index{20, 20}, 150)
	p, err := PrepareTew(x, y, Add)
	if err != nil {
		t.Fatal(err)
	}
	if p.SamePattern {
		t.Skip("random tensors unexpectedly share pattern")
	}
	want := append([]tensor.Value(nil), p.ExecuteSeq().Vals...)
	got := p.ExecuteGPU(testDevice())
	for i := range want {
		if got.Vals[i] != want[i] {
			t.Fatalf("GPU general-path entry %d differs", i)
		}
	}
}

func TestTewGeneralMatchesMapSemantics(t *testing.T) {
	f := func(seedX, seedY int64) bool {
		x := randTensor(seedX, []tensor.Index{6, 6, 6}, 40)
		y := randTensor(seedY, []tensor.Index{6, 6, 6}, 40)
		z, err := Tew(x, y, Add)
		if err != nil {
			return false
		}
		xm, ym := cooToF64Map(x), cooToF64Map(y)
		want := make(map[string]float64, len(xm)+len(ym))
		for k, v := range xm {
			want[k] += v
		}
		for k, v := range ym {
			want[k] += v
		}
		got := cooToF64Map(z)
		if len(got) != len(want) {
			return false
		}
		for k, wv := range want {
			if !closeEnough(got[k], wv) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTewHiCOOMatchesCOO(t *testing.T) {
	x, y := samePatternPair(7, []tensor.Index{50, 60, 40}, 1500)
	hx := hicoo.FromCOO(x, hicoo.DefaultBlockBits)
	hy := hicoo.FromCOO(y, hicoo.DefaultBlockBits)
	for _, op := range []Op{Add, Sub, Mul, Div} {
		hp, err := PrepareTewHiCOO(hx, hy, op)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		hz := hp.ExecuteSeq()
		if err := hz.Validate(); err != nil {
			t.Fatalf("%v: output invalid: %v", op, err)
		}
		cz, err := Tew(x, y, op)
		if err != nil {
			t.Fatal(err)
		}
		compareMaps(t, cooToF64Map(hz.ToCOO()), cooToF64Map(cz), "HiCOO-Tew "+op.String())

		// Parallel and GPU paths agree entry-for-entry with sequential.
		want := append([]tensor.Value(nil), hz.Vals...)
		hp.ExecuteOMP(parallel.Options{Schedule: parallel.Dynamic})
		for i := range want {
			if hp.Out.Vals[i] != want[i] {
				t.Fatalf("%v: HiCOO OMP entry %d differs", op, i)
			}
		}
		hp.ExecuteGPU(testDevice())
		for i := range want {
			if hp.Out.Vals[i] != want[i] {
				t.Fatalf("%v: HiCOO GPU entry %d differs", op, i)
			}
		}
	}
}

func TestTewHiCOORejectsDifferentStructure(t *testing.T) {
	x := randTensor(8, []tensor.Index{30, 30, 30}, 200)
	y := randTensor(9, []tensor.Index{30, 30, 30}, 200)
	hx := hicoo.FromCOO(x, hicoo.DefaultBlockBits)
	hy := hicoo.FromCOO(y, hicoo.DefaultBlockBits)
	if _, err := PrepareTewHiCOO(hx, hy, Add); err == nil {
		t.Fatal("expected structural mismatch error")
	}
	// Different block bits also rejected.
	hy2 := hicoo.FromCOO(x, 5)
	if _, err := PrepareTewHiCOO(hx, hy2, Add); err == nil {
		t.Fatal("expected block-bits mismatch error")
	}
}

func TestTewFlopCount(t *testing.T) {
	x, y := samePatternPair(10, []tensor.Index{10, 10}, 50)
	p, err := PrepareTew(x, y, Add)
	if err != nil {
		t.Fatal(err)
	}
	if p.FlopCount() != int64(p.Out.NNZ()) {
		t.Fatalf("FlopCount = %d, want %d", p.FlopCount(), p.Out.NNZ())
	}
}

func TestOpString(t *testing.T) {
	if Add.String() != "add" || Sub.String() != "sub" || Mul.String() != "mul" || Div.String() != "div" {
		t.Fatal("Op.String wrong")
	}
	if Op(42).String() != "unknown" {
		t.Fatal("unknown Op string wrong")
	}
}

func TestOpApplyPanicsOnUnknown(t *testing.T) {
	// tewValues panics before it writes a value, on either body.
	xv, yv := make([]tensor.Value, 100), make([]tensor.Value, 100)
	for i := range xv {
		xv[i], yv[i] = 1, 2 // every op gives a non-zero
	}
	for _, asm := range tensortest.BodySides() {
		zv := make([]tensor.Value, 100)
		tensortest.WithAVX2(asm, func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("asm %v: tewValues did not panic on an unknown op", asm)
				}
			}()
			tewValues(xv, yv, zv, Op(42), 3, 100)
		})
		for i, v := range zv {
			if v != 0 {
				t.Fatalf("asm %v: value %d written before the panic", asm, i)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Op(42).Apply(1, 2)
}
