package hicoo

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestGHiCOORoundTrip(t *testing.T) {
	x := randomTensor(21, 3, 200, 400)
	for mode := 0; mode < 3; mode++ {
		g := FromCOOExceptMode(x, mode, DefaultBlockBits)
		if err := g.Validate(); err != nil {
			t.Fatalf("mode %d Validate: %v", mode, err)
		}
		if d := tensor.AbsDiff(x, g.ToCOO()); d != 0 {
			t.Fatalf("mode %d roundtrip diff %v", mode, d)
		}
	}
}

func TestGHiCOORoundTripProperty(t *testing.T) {
	f := func(seed int64, orderRaw, modeRaw, bitsRaw uint8) bool {
		order := int(orderRaw)%3 + 2
		mode := int(modeRaw) % order
		bits := uint8(bitsRaw)%MaxBlockBits + 1
		x := randomTensor(seed, order, 80, 150)
		g := FromCOOExceptMode(x, mode, bits)
		if g.Validate() != nil {
			return false
		}
		return tensor.AbsDiff(x, g.ToCOO()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGHiCOOUncompModes(t *testing.T) {
	x := randomTensor(22, 4, 50, 100)
	g := FromCOOModes(x, []int{0, 2}, 6)
	u := g.UncompModes()
	if len(u) != 2 || u[0] != 1 || u[1] != 3 {
		t.Fatalf("UncompModes = %v, want [1 3]", u)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if d := tensor.AbsDiff(x, g.ToCOO()); d != 0 {
		t.Fatalf("two-uncompressed roundtrip diff %v", d)
	}
}

func TestGHiCOOFiberPointers(t *testing.T) {
	// Build a tensor with known mode-2 fibers.
	x := tensor.NewCOO([]tensor.Index{4, 4, 16}, 5)
	x.AppendIdx3(0, 0, 3, 1)
	x.AppendIdx3(0, 0, 9, 2)
	x.AppendIdx3(0, 1, 0, 3)
	x.AppendIdx3(3, 3, 7, 4)
	x.AppendIdx3(3, 3, 8, 5)
	g, fb := FromCOOFibers(x, 2, 2) // block 4x4 over modes 0,1
	fptr := fb.Ptr
	if len(fptr)-1 != 3 {
		t.Fatalf("fibers = %d, want 3 (fptr=%v)", len(fptr)-1, fptr)
	}
	// Each fiber's entries must agree on all compressed coordinates and be
	// sorted by the uncompressed index.
	for f := 0; f+1 < len(fptr); f++ {
		for m := fptr[f] + 1; m < fptr[f+1]; m++ {
			for ci := range g.CompModes {
				if g.EInds[ci][m] != g.EInds[ci][m-1] {
					t.Fatal("fiber spans different compressed coordinates")
				}
			}
			if g.UInds[0][m] <= g.UInds[0][m-1] {
				t.Fatal("fiber not sorted by uncompressed index")
			}
		}
	}
	sameFibers(t, "known fibers", g, fb)
}

// TestGHiCOOFiberPointersRequireOneUncomp: fibers run along exactly one
// uncompressed mode, so FromCOOFibers refuses a mode outside the tensor,
// which would leave none.
func TestGHiCOOFiberPointersRequireOneUncomp(t *testing.T) {
	x := randomTensor(23, 4, 50, 60)
	for _, n := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for mode %d of an order-4 tensor", n)
				}
			}()
			FromCOOFibers(x, n, 4)
		}()
	}
}

// fiberPointersOracle finds the fibers of a gHiCOO tensor with one
// uncompressed mode the two-pass way the sweep replaced: count the
// non-zeros that open a fiber (a block's first, or one differing from
// the previous in an element index), then fill exactly sized arrays.
func fiberPointersOracle(g *GHiCOO) (fptr []int64, fiberBlock []int32) {
	startsFiber := func(b int, x int64) bool {
		if x == g.BPtr[b] {
			return true
		}
		for _, e := range g.EInds {
			if e[x] != e[x-1] {
				return true
			}
		}
		return false
	}
	fibers := 0
	for b := 0; b < g.NumBlocks(); b++ {
		for x := g.BPtr[b]; x < g.BPtr[b+1]; x++ {
			if startsFiber(b, x) {
				fibers++
			}
		}
	}
	fptr, fiberBlock = make([]int64, 0, fibers+1), make([]int32, 0, fibers)
	for b := 0; b < g.NumBlocks(); b++ {
		for x := g.BPtr[b]; x < g.BPtr[b+1]; x++ {
			if startsFiber(b, x) {
				fptr = append(fptr, x)
				fiberBlock = append(fiberBlock, int32(b))
			}
		}
	}
	return append(fptr, int64(g.NNZ())), fiberBlock
}

// sameFibers checks fb against the oracle's fiber pointers and against
// the skeleton the oracle's fiber blocks induce: each block's first fiber, a copy of
// the block indices, each fiber's head element indices.
func sameFibers(t *testing.T, what string, g *GHiCOO, fb *Fibers) {
	t.Helper()
	fptr, fiberBlock := fiberPointersOracle(g)
	if !slices.Equal(fb.Ptr, fptr) {
		t.Fatalf("%s: fiber pointers differ from the two-pass oracle", what)
	}
	var bptr []int64
	for f := range fiberBlock {
		if f == 0 || fiberBlock[f] != fiberBlock[f-1] {
			bptr = append(bptr, int64(f))
		}
	}
	bptr = append(bptr, int64(len(fiberBlock)))
	if !slices.Equal(fb.BPtr, bptr) {
		t.Fatalf("%s: skeleton block pointers %v, want %v", what, fb.BPtr, bptr)
	}
	for ci := range g.CompModes {
		if !slices.Equal(fb.BInds[ci], g.BInds[ci]) || (len(g.BInds[ci]) > 0 && &fb.BInds[ci][0] == &g.BInds[ci][0]) {
			t.Fatalf("%s: skeleton block indices of slot %d are not a copy of the tensor's", what, ci)
		}
		e := make([]uint8, len(fiberBlock))
		for f := range e {
			e[f] = g.EInds[ci][fptr[f]]
		}
		if !slices.Equal(fb.EInds[ci], e) {
			t.Fatalf("%s: skeleton element indices of slot %d differ from the fiber heads'", what, ci)
		}
	}
}

func TestGHiCOOStorageBeatsHiCOOOnHyperSparse(t *testing.T) {
	// gHiCOO motivation (§3.3): for hyper-sparse tensors, compressing
	// fewer modes reduces the per-block overhead.
	x := randomTensor(24, 3, 1<<18, 3000)
	h := FromCOO(x, 7)
	g := FromCOOExceptMode(x, 2, 7)
	if g.StorageBytes() >= h.StorageBytes() {
		t.Logf("note: gHiCOO=%d HiCOO=%d (may legitimately vary with block sharing)",
			g.StorageBytes(), h.StorageBytes())
	}
	// At minimum both must be well-formed and consistent.
	if g.NNZ() != h.NNZ() {
		t.Fatal("formats disagree on nnz")
	}
}

func TestFromCOOModesPanics(t *testing.T) {
	x := randomTensor(25, 3, 10, 10)
	for name, fn := range map[string]func(){
		"no modes":      func() { FromCOOModes(x, nil, 4) },
		"non-ascending": func() { FromCOOModes(x, []int{1, 0}, 4) },
		"bad bits":      func() { FromCOOModes(x, []int{0}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSemiHiCOOToSemiCOO(t *testing.T) {
	// Build an sHiCOO by hand: 2 fibers in one block, dense mode 2 (R=3).
	s := &SemiHiCOO{
		Dims:       []tensor.Index{8, 8, 3},
		DenseModes: []int{2},
		BlockBits:  2,
		BPtr:       []int64{0, 2},
		BInds:      [][]tensor.Index{{1}, {0}},
		EInds:      [][]uint8{{0, 1}, {2, 3}},
		Vals:       []tensor.Value{1, 2, 3, 4, 5, 6},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if s.NumFibers() != 2 || s.DenseSize() != 3 {
		t.Fatalf("fibers=%d densesize=%d", s.NumFibers(), s.DenseSize())
	}
	sc := s.ToSemiCOO()
	if err := sc.Validate(); err != nil {
		t.Fatalf("sCOO Validate: %v", err)
	}
	// Fiber 0 has sparse coords (1<<2|0, 0<<2|2) = (4, 2).
	c := sc.ToCOO()
	if v, ok := c.At(4, 2, 0); !ok || v != 1 {
		t.Fatalf("At(4,2,0) = %v,%v want 1", v, ok)
	}
	if v, ok := c.At(5, 3, 2); !ok || v != 6 {
		t.Fatalf("At(5,3,2) = %v,%v want 6", v, ok)
	}
}

func TestSemiHiCOOValidateCatchesErrors(t *testing.T) {
	s := &SemiHiCOO{
		Dims:       []tensor.Index{8, 3},
		DenseModes: []int{1},
		BlockBits:  2,
		BPtr:       []int64{0, 1},
		BInds:      [][]tensor.Index{{100}}, // out of range: 100<<2 >= 8
		EInds:      [][]uint8{{0}},
		Vals:       []tensor.Value{1, 2, 3},
	}
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range block index")
	}
}

// CompIndex reconstructs the coordinate of compressed mode slot ci (an
// index into CompModes) for non-zero x inside block b.
func (g *GHiCOO) CompIndex(ci, b int, x int64) tensor.Index {
	return g.BInds[ci][b]<<g.BlockBits | tensor.Index(g.EInds[ci][x])
}

// ToCOO expands the gHiCOO tensor back to coordinate format.
func (g *GHiCOO) ToCOO() *tensor.COO {
	out := tensor.NewCOO(g.Dims, g.NNZ())
	uncomp := g.UncompModes()
	idx := make([]tensor.Index, g.Order())
	for b := 0; b < g.NumBlocks(); b++ {
		for x := g.BPtr[b]; x < g.BPtr[b+1]; x++ {
			for ci, n := range g.CompModes {
				idx[n] = g.CompIndex(ci, b, x)
			}
			for ui, n := range uncomp {
				idx[n] = g.UInds[ui][x]
			}
			out.Append(idx, g.Vals[x])
		}
	}
	return out
}

// Validate checks structural invariants.
func (g *GHiCOO) Validate() error {
	m := g.NNZ()
	nb := g.NumBlocks()
	if nb < 0 || g.BPtr[0] != 0 || g.BPtr[nb] != int64(m) {
		return fmt.Errorf("hicoo: gHiCOO block pointers malformed")
	}
	for ci, n := range g.CompModes {
		if len(g.BInds[ci]) != nb || len(g.EInds[ci]) != m {
			return fmt.Errorf("hicoo: gHiCOO compressed mode %d array lengths wrong", n)
		}
	}
	uncomp := g.UncompModes()
	if len(g.UInds) != len(uncomp) {
		return fmt.Errorf("hicoo: gHiCOO has %d uncompressed arrays, want %d", len(g.UInds), len(uncomp))
	}
	for b := 0; b < nb; b++ {
		for x := g.BPtr[b]; x < g.BPtr[b+1]; x++ {
			for ci, n := range g.CompModes {
				if i := g.CompIndex(ci, b, x); i >= g.Dims[n] {
					return fmt.Errorf("hicoo: gHiCOO index %d out of range in mode %d", i, n)
				}
			}
			for ui, n := range uncomp {
				if i := g.UInds[ui][x]; i >= g.Dims[n] {
					return fmt.Errorf("hicoo: gHiCOO index %d out of range in mode %d", i, n)
				}
			}
		}
	}
	return nil
}

// orderTensors are tensors of order 2-4 with duplicate coordinates (values
// number the entries, so any instability shows), with blocks of many
// non-zeros and of one, for the conversions' order-dependence tests.
func orderTensors() []*tensor.COO {
	var out []*tensor.COO
	for i, dims := range [][]tensor.Index{{9, 300}, {6, 40, 300}, {5, 300, 7, 20}, {3000, 3000, 3000}} {
		rng := rand.New(rand.NewSource(int64(40 + i)))
		x := tensor.NewCOO(dims, 400)
		idx := make([]tensor.Index, len(dims))
		for v := 0; v < 400; v++ {
			for n, d := range dims {
				idx[n] = tensor.Index(rng.Intn(int(d)))
			}
			x.Append(idx, tensor.Value(v))
		}
		out = append(out, x)
	}
	return out
}

// permutations lists every permutation of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			out = append(out, append(append(append([]int{}, p[:at]...), n-1), p[at:]...))
		}
	}
	return out
}

func sameGHiCOO(t *testing.T, what string, got, want *GHiCOO) {
	t.Helper()
	if !slices.Equal(got.BPtr, want.BPtr) || !slices.Equal(got.Vals, want.Vals) {
		t.Fatalf("%s: block pointers or values differ", what)
	}
	sameArrays(t, what+" BInds", got.BInds, want.BInds)
	sameArrays(t, what+" EInds", got.EInds, want.EInds)
	sameArrays(t, what+" UInds", got.UInds, want.UInds)
}

// TestFromCOOModesIgnoresRecordedOrder: blockModes sorts only the
// uncompressed columns the input's recorded order leaves open, so for
// every recorded order and every set of compressed modes the gHiCOO
// arrays must equal those converted from the same data with its order
// forgotten, which sorts on every uncompressed column.
func TestFromCOOModesIgnoresRecordedOrder(t *testing.T) {
	for ti, x0 := range orderTensors() {
		order := x0.Order()
		for _, recorded := range permutations(order) {
			x := x0.Clone()
			x.Sort(recorded)
			forgotten := &tensor.COO{Dims: x.Dims, Inds: x.Inds, Vals: x.Vals}
			for set := 1; set < 1<<order; set++ {
				var comp []int
				for n := 0; n < order; n++ {
					if set>>n&1 == 1 {
						comp = append(comp, n)
					}
				}
				what := fmt.Sprintf("tensor %d recorded %v comp %v", ti, recorded, comp)
				sameGHiCOO(t, what, FromCOOModes(x, comp, 3), FromCOOModes(forgotten, comp, 3))
			}
		}
	}
}

// TestFromCOOFibersMatchesTwoPass: the fibers the assembly sweep finds
// equal the two-pass oracle's over the finished gHiCOO, and the tensor
// equals FromCOOExceptMode's, for every mode, block size and recorded
// order (none, and each permutation).
func TestFromCOOFibersMatchesTwoPass(t *testing.T) {
	for ti, x0 := range orderTensors() {
		inputs := []*tensor.COO{x0}
		for _, recorded := range permutations(x0.Order()) {
			x := x0.Clone()
			x.Sort(recorded)
			inputs = append(inputs, x)
		}
		for xi, x := range inputs {
			for mode := 0; mode < x.Order(); mode++ {
				for _, bits := range []uint8{1, 3, DefaultBlockBits} {
					what := fmt.Sprintf("tensor %d input %d mode %d bits %d", ti, xi, mode, bits)
					g, fb := FromCOOFibers(x, mode, bits)
					sameGHiCOO(t, what, g, FromCOOExceptMode(x, mode, bits))
					sameFibers(t, what, g, fb)
				}
			}
		}
	}
}
