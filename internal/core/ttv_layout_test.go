package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hicoo"
	"repro/internal/tensor"
)

// TestTtvLayoutGate pins where the length-grouped layout's gate falls
// (DESIGN.md §26): every mode of irrS takes the layout and no mode of
// regS4d or nell2 does, in the COO and the HiCOO plan, at
// BenchmarkTtvBody's sizes, and for irrS and nell2, the two nearest the
// gate, at the benchmark workloads' main sizes.
func TestTtvLayoutGate(t *testing.T) {
	for _, r := range []struct {
		id   string
		nnz  int
		seed int64
	}{
		{"irrS", 37_500, 2}, {"regS4d", 12_500, 2}, {"nell2", 5_000, 2},
		{"irrS", 300_000, 1}, {"nell2", 40_000, 1},
	} {
		e, err := dataset.ByID(r.id)
		if err != nil {
			t.Fatal(err)
		}
		x, err := dataset.Materialize(e, r.nnz, r.seed)
		if err != nil {
			t.Fatal(err)
		}
		want := r.id == "irrS"
		for mode := 0; mode < x.Order(); mode++ {
			p, err := PrepareTtv(x, mode)
			if err != nil {
				t.Fatal(err)
			}
			hp, err := PrepareTtvHiCOO(x, mode, hicoo.DefaultBlockBits)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []*fiberKernel{&p.k, &hp.k} {
				if got := k.grouped != nil; got != want {
					stored, grouped := ttvLaneSteps(k.fptr)
					t.Errorf("%s %d mode %d: grouped layout %v, want %v (lane-steps %d stored, %d grouped: %.3f)",
						r.id, r.nnz, mode, got, want, stored, grouped, float64(stored)/float64(grouped))
				}
			}
		}
	}
}

// TestTtvRangesPlanHasNoLayout: PrepareTtvRanges builds no
// length-grouped layout, even on irrS where PrepareTtv builds one in
// every mode, and its whole-tensor ExecuteSeq over the stored fiber
// order equals PrepareTtv's bit for bit.
func TestTtvRangesPlanHasNoLayout(t *testing.T) {
	e, err := dataset.ByID("irrS")
	if err != nil {
		t.Fatal(err)
	}
	x, err := dataset.Materialize(e, 37_500, 2)
	if err != nil {
		t.Fatal(err)
	}
	for mode := 0; mode < x.Order(); mode++ {
		p, err := PrepareTtv(x, mode)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := PrepareTtvRanges(x, mode)
		if err != nil {
			t.Fatal(err)
		}
		if p.k.grouped == nil || rp.k.grouped != nil {
			t.Fatalf("mode %d: PrepareTtv layout %v, PrepareTtvRanges layout %v; want true, false", mode, p.k.grouped != nil, rp.k.grouped != nil)
		}
		v := make(tensor.Vector, x.Dims[mode])
		for i := range v {
			v[i] = tensor.Value(i%7) - 3
		}
		want, err := p.ExecuteSeq(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rp.ExecuteSeq(v)
		if err != nil {
			t.Fatal(err)
		}
		for f := range want.Vals {
			if math.Float32bits(got.Vals[f]) != math.Float32bits(want.Vals[f]) {
				t.Fatalf("mode %d fiber %d: %v without the layout, %v with it", mode, f, got.Vals[f], want.Vals[f])
			}
		}
	}
}

// TestTtvLaneSteps checks ttvLaneSteps against a direct count over the
// grouped order that groupByLength builds, on fibers of every length
// class: empty, short, and past the counting sort's top key, in more
// than one window, with a partial group at the end.
func TestTtvLaneSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fptr := []int64{0}
	for f := 0; f < 3*ttvWindow+13; f++ {
		n := int64(rng.Intn(4))
		switch rng.Intn(40) {
		case 0:
			n = int64(ttvWindow - 3 + rng.Intn(2*ttvWindow))
		case 1:
			n = int64(20 + rng.Intn(200))
		}
		fptr = append(fptr, fptr[len(fptr)-1]+n)
	}
	k := FiberView{Fptr: fptr, KInd: make([]uint32, fptr[len(fptr)-1]), Vals: make([]float32, fptr[len(fptr)-1]),
		Dims: []uint32{1, 1}, Mode: 1}.kernel(1)
	g := k.groupByLength()
	if g == nil {
		t.Fatal("no grouped layout")
	}
	steps := func(fptr []int64) (s int64) {
		mf := len(fptr) - 1
		for w0 := 0; w0 < mf; w0 += ttvWindow {
			for g0 := w0; g0 < min(w0+ttvWindow, mf); g0 += 8 {
				var longest int64
				for f := g0; f < min(g0+8, w0+ttvWindow, mf); f++ {
					longest = max(longest, fptr[f+1]-fptr[f])
				}
				s += 8 * longest
			}
		}
		return s
	}
	stored, grouped := ttvLaneSteps(fptr)
	if want := steps(fptr); stored != want {
		t.Errorf("stored lane-steps %d, want %d", stored, want)
	}
	if want := steps(g.fptr); grouped != want {
		t.Errorf("grouped lane-steps %d, want %d", grouped, want)
	}
	seen := make([]bool, len(fptr)-1)
	for i, f := range g.perm {
		if seen[f] || int(f)/ttvWindow != i/ttvWindow {
			t.Fatalf("perm[%d] = %d: repeated or outside its window", i, f)
		}
		seen[f] = true
		if i%ttvWindow > 0 {
			prev := g.perm[i-1]
			lp, lf := ttvKey(fptr[prev+1]-fptr[prev]), ttvKey(fptr[f+1]-fptr[f])
			if lp < lf || lp == lf && prev > f {
				t.Fatalf("perm[%d..%d] = %d, %d: not a stable sort by descending length", i-1, i, prev, f)
			}
		}
	}
}
