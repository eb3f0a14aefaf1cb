package levels

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/csf"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Mttkrp is the one-shot form: prepare and execute once.
func Mttkrp(h *Hierarchy, mode int, mats []*tensor.Matrix, opt parallel.Options) (*tensor.Matrix, error) {
	p, err := PrepareMttkrp(h, mode, csf.FactorCols(mats, mode))
	if err != nil {
		return nil, err
	}
	return p.ExecuteOMP(mats, opt)
}

// Ttv is the one-shot form: prepare and execute once.
func Ttv(h *Hierarchy, mode int, v tensor.Vector, opt parallel.Options) (*tensor.COO, error) {
	p, err := PrepareTtv(h, mode)
	if err != nil {
		return nil, err
	}
	return p.ExecuteOMP(v, opt)
}

// Ttm is the one-shot form: prepare and execute once.
func Ttm(h *Hierarchy, mode int, u *tensor.Matrix, opt parallel.Options) (*tensor.SemiCOO, error) {
	p, err := PrepareTtm(h, mode, u.Cols)
	if err != nil {
		return nil, err
	}
	return p.ExecuteOMP(u, opt)
}

func testTensor(t *testing.T, dims []tensor.Index, nnz int, seed int64) *tensor.COO {
	t.Helper()
	x := tensor.RandomCOO(dims, nnz, rand.New(rand.NewSource(seed)))
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	return x
}

func cooMap(x *tensor.COO) map[string]float64 {
	out := make(map[string]float64, x.NNZ())
	idx := make([]tensor.Index, x.Order())
	for i := 0; i < x.NNZ(); i++ {
		v := x.Entry(i, idx)
		out[fmt.Sprint(idx)] += float64(v)
	}
	// Drop explicit zeros (dense levels store absent coordinates).
	for k, v := range out {
		if v == 0 {
			delete(out, k)
		}
	}
	return out
}

func mapsClose(t *testing.T, got, want map[string]float64, tol float64, what string) {
	t.Helper()
	for k, wv := range want {
		gv := got[k]
		if d := math.Abs(gv - wv); d > tol*math.Max(1, math.Abs(wv)) {
			t.Fatalf("%s: key %s = %g, want %g", what, k, gv, wv)
		}
	}
	for k, gv := range got {
		if _, ok := want[k]; !ok && math.Abs(gv) > tol {
			t.Fatalf("%s: unexpected key %s = %g", what, k, gv)
		}
	}
}

// allSigs enumerates every declared signature for one order and mode
// order — the set the round-trip and kernel tests sweep.
func allSigs(order int) map[string]Signature {
	return map[string]Signature{
		"coo":    COOSig(order),
		"csf":    CSFSig(order),
		"bcsf":   BCSFSig(order, 3),
		"hicoo":  HiCOOSig(order, 2),
		"bcsf7":  BCSFSig(order, 7),
		"hicoo7": HiCOOSig(order, 7),
	}
}

func naturalOrder(n int) []int {
	mo := make([]int, n)
	for i := range mo {
		mo[i] = i
	}
	return mo
}

func TestSignatureValidate(t *testing.T) {
	for name, sig := range allSigs(3) {
		if err := sig.Validate(3); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	bad := []Signature{
		{Name: "dup", Levels: []LevelDesc{{Kind: Compressed, Slot: 0}, {Kind: Compressed, Slot: 0}, {Kind: Compressed, Slot: 1}}},
		{Name: "missing", Levels: []LevelDesc{{Kind: Compressed, Slot: 0}, {Kind: Compressed, Slot: 1}}},
		{Name: "partial-leaf", Levels: []LevelDesc{{Kind: Compressed, Slot: 0}, {Kind: Compressed, Slot: 1}, {Kind: Compressed, Slot: 2}, {Kind: Blocked, Slot: 0, Shift: 4, Partial: true}}},
		{Name: "oob", Levels: []LevelDesc{{Kind: Compressed, Slot: 3}}},
		{Name: "shifted-final", Levels: []LevelDesc{{Kind: Compressed, Slot: 0, Shift: 2}, {Kind: Compressed, Slot: 1}, {Kind: Compressed, Slot: 2}}},
	}
	for _, sig := range bad {
		if err := sig.Validate(3); err == nil {
			t.Errorf("%s: Validate accepted a malformed signature", sig.Name)
		}
	}
}

func TestBuildRoundTrip(t *testing.T) {
	shapes := []struct {
		dims []tensor.Index
		nnz  int
	}{
		{[]tensor.Index{24, 20, 16}, 500},
		{[]tensor.Index{300, 250, 200}, 300},
		{[]tensor.Index{50, 1, 60}, 200},
		{[]tensor.Index{13, 17}, 80},
	}
	for _, sh := range shapes {
		x := testTensor(t, sh.dims, sh.nnz, 42)
		want := cooMap(x)
		order := x.Order()
		for name, sig := range allSigs(order) {
			for mode := 0; mode < order; mode++ {
				mo := append(append([]int{mode}, naturalOrder(order)[:mode]...), naturalOrder(order)[mode+1:]...)
				h, err := Build(x, sig, mo)
				if err != nil {
					t.Fatalf("%v %s mode %d: %v", sh.dims, name, mode, err)
				}
				if err := h.Validate(); err != nil {
					t.Fatalf("%v %s mode %d: %v", sh.dims, name, mode, err)
				}
				mapsClose(t, cooMap(h.ToCOO()), want, 1e-12, fmt.Sprintf("%v %s mode %d", sh.dims, name, mode))
			}
		}
	}
}

func TestBuildDenseLevel(t *testing.T) {
	x := testTensor(t, []tensor.Index{6, 8, 5}, 40, 7)
	sig := Signature{Name: "dense-root", Levels: []LevelDesc{
		{Kind: Dense, Slot: 0},
		{Kind: Compressed, Slot: 1},
		{Kind: Compressed, Slot: 2},
	}}
	h, err := Build(x, sig, naturalOrder(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := h.NumNodes(0); got != 6 {
		t.Fatalf("dense root has %d nodes, want full extent 6", got)
	}
	mapsClose(t, cooMap(h.ToCOO()), cooMap(x), 1e-12, "dense-root")

	// A dense leaf stores explicit zeros for absent coordinates.
	leaf := Signature{Name: "dense-leaf", Levels: []LevelDesc{
		{Kind: Compressed, Slot: 0},
		{Kind: Compressed, Slot: 1},
		{Kind: Dense, Slot: 2},
	}}
	hl, err := Build(x, leaf, naturalOrder(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := hl.Validate(); err != nil {
		t.Fatal(err)
	}
	if hl.NNZ()%5 != 0 {
		t.Fatalf("dense leaf count %d not a multiple of the extent", hl.NNZ())
	}
	mapsClose(t, cooMap(hl.ToCOO()), cooMap(x), 1e-12, "dense-leaf")
}

func TestFromCSFAndBlockRoot(t *testing.T) {
	x := testTensor(t, []tensor.Index{40, 30, 20}, 400, 3)
	want := cooMap(x)
	mo := []int{1, 0, 2}
	c, err := csf.FromCOO(x, mo)
	if err != nil {
		t.Fatal(err)
	}
	h := FromCSF(c)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	mapsClose(t, cooMap(h.ToCOO()), want, 1e-12, "FromCSF")

	b, err := BlockRoot(h, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	mapsClose(t, cooMap(b.ToCOO()), want, 1e-12, "BlockRoot")

	// The split must agree with building blocked-CSF from scratch.
	direct, err := Build(x, BCSFSig(3, 3), mo)
	if err != nil {
		t.Fatal(err)
	}
	mapsClose(t, cooMap(direct.ToCOO()), cooMap(b.ToCOO()), 1e-12, "BlockRoot vs Build")
	if b.NumNodes(0) != direct.NumNodes(0) {
		t.Fatalf("BlockRoot has %d coarse nodes, direct build %d", b.NumNodes(0), direct.NumNodes(0))
	}

	if _, err := BlockRoot(b, 3); err == nil {
		t.Fatal("BlockRoot accepted a blocked root")
	}
}

// refMttkrp computes Mttkrp by direct summation.
func refMttkrp(x *tensor.COO, mode int, mats []*tensor.Matrix, r int) *tensor.Matrix {
	out := tensor.NewMatrix(int(x.Dims[mode]), r)
	idx := make([]tensor.Index, x.Order())
	for e := 0; e < x.NNZ(); e++ {
		v := x.Entry(e, idx)
		row := out.Row(int(idx[mode]))
		for i := 0; i < r; i++ {
			p := v
			for n := 0; n < x.Order(); n++ {
				if n != mode {
					p *= mats[n].At(int(idx[n]), i)
				}
			}
			row[i] += p
		}
	}
	return out
}

func matMap(m *tensor.Matrix) map[string]float64 {
	out := make(map[string]float64)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if v := m.At(i, j); v != 0 {
				out[fmt.Sprintf("r%d,c%d", i, j)] = float64(v)
			}
		}
	}
	return out
}

func TestGenericKernelsAgainstReference(t *testing.T) {
	const r = 4
	shapes := [][]tensor.Index{
		{24, 20, 16},
		{50, 1, 60},
		{13, 17},
	}
	opt := parallel.Options{}
	for _, dims := range shapes {
		x := testTensor(t, dims, 300, 11)
		order := x.Order()
		rng := rand.New(rand.NewSource(5))
		mats := make([]*tensor.Matrix, order)
		for n := range mats {
			mats[n] = tensor.NewMatrix(int(x.Dims[n]), r)
			mats[n].Randomize(rng)
		}
		for name, sig := range allSigs(order) {
			for mode := 0; mode < order; mode++ {
				what := fmt.Sprintf("%v %s mode %d", dims, name, mode)
				others := make([]int, 0, order-1)
				for n := 0; n < order; n++ {
					if n != mode {
						others = append(others, n)
					}
				}
				// Mttkrp: output mode in slot 0.
				hRoot, err := Build(x, sig, append([]int{mode}, others...))
				if err != nil {
					t.Fatal(what, err)
				}
				got, err := Mttkrp(hRoot, mode, mats, opt)
				if err != nil {
					t.Fatal(what, err)
				}
				mapsClose(t, matMap(got), matMap(refMttkrp(x, mode, mats, r)), 2e-3, what+" Mttkrp")

				// Ttv/Ttm: product mode in the last slot.
				hLeaf, err := Build(x, sig, append(append([]int{}, others...), mode))
				if err != nil {
					t.Fatal(what, err)
				}
				vec := tensor.RandomVector(int(x.Dims[mode]), rand.New(rand.NewSource(int64(mode))))
				tv, err := Ttv(hLeaf, mode, vec, opt)
				if err != nil {
					t.Fatal(what, err)
				}
				wantTv := make(map[string]float64)
				idx := make([]tensor.Index, order)
				oidx := make([]tensor.Index, 0, order-1)
				for e := 0; e < x.NNZ(); e++ {
					v := x.Entry(e, idx)
					oidx = oidx[:0]
					for _, n := range others {
						oidx = append(oidx, idx[n])
					}
					wantTv[fmt.Sprint(oidx)] += float64(v) * float64(vec[idx[mode]])
				}
				mapsClose(t, cooMap(tv), wantTv, 2e-3, what+" Ttv")

				u := tensor.NewMatrix(int(x.Dims[mode]), r)
				u.Randomize(rand.New(rand.NewSource(int64(mode) + 100)))
				tm, err := Ttm(hLeaf, mode, u, opt)
				if err != nil {
					t.Fatal(what, err)
				}
				wantTm := make(map[string]float64)
				for e := 0; e < x.NNZ(); e++ {
					v := x.Entry(e, idx)
					for i := 0; i < r; i++ {
						key := make([]tensor.Index, order)
						copy(key, idx)
						key[mode] = tensor.Index(i)
						wantTm[fmt.Sprint(key)] += float64(v) * float64(u.At(int(idx[mode]), i))
					}
				}
				mapsClose(t, cooMap(tm.ToCOO()), wantTm, 2e-3, what+" Ttm")
			}
		}
	}
}

// TestMttkrpAtomicPath exercises the atomic fallback: a hierarchy whose
// root level is not the output mode still produces correct results.
func TestMttkrpAtomicPath(t *testing.T) {
	x := testTensor(t, []tensor.Index{20, 24, 16}, 300, 13)
	const r = 4
	rng := rand.New(rand.NewSource(5))
	mats := make([]*tensor.Matrix, 3)
	for n := range mats {
		mats[n] = tensor.NewMatrix(int(x.Dims[n]), r)
		mats[n].Randomize(rng)
	}
	// The root holds another mode's coarse bits (partial), so distinct
	// roots may share output rows and the walker must fall back to
	// atomic updates.
	sig := Signature{Name: "coarse-first", Levels: []LevelDesc{
		{Kind: Blocked, Slot: 1, Shift: 2, Partial: true},
		{Kind: Compressed, Slot: 0},
		{Kind: Blocked, Slot: 1},
		{Kind: Compressed, Slot: 2},
	}}
	h, err := Build(x, sig, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Mttkrp(h, 0, mats, parallel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mapsClose(t, matMap(got), matMap(refMttkrp(x, 0, mats, r)), 2e-3, "atomic Mttkrp")
}

// TestMttkrpCancelledContext: a cancelled opt.Ctx stops the root loop
// with partial sums in the output, so Mttkrp must hand back
// parallel.ErrDeadline and no matrix, like the csf root kernels.
func TestMttkrpCancelledContext(t *testing.T) {
	x := testTensor(t, []tensor.Index{10, 12, 14}, 100, 23)
	h, err := Build(x, CSFSig(3), []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	mats := make([]*tensor.Matrix, 3)
	for n := range mats {
		mats[n] = tensor.NewMatrix(int(x.Dims[n]), 4)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := Mttkrp(h, 0, mats, parallel.Options{Ctx: ctx})
	if !errors.Is(err, parallel.ErrDeadline) || out != nil {
		t.Fatalf("Mttkrp under a cancelled context returned (%v, %v), want (nil, ErrDeadline)", out != nil, err)
	}
}

// TestMttkrpRejectsBadPrefix pins the contract error: a hierarchy that
// completes another mode before the output mode cannot instantiate
// Mttkrp for it.
func TestMttkrpRejectsBadPrefix(t *testing.T) {
	x := testTensor(t, []tensor.Index{10, 12, 14}, 100, 17)
	h, err := Build(x, CSFSig(3), []int{1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Mttkrp(h, 0, nil, parallel.Options{}); err == nil {
		t.Fatal("Mttkrp accepted a hierarchy whose root completes another mode")
	}
	v := tensor.RandomVector(14, rand.New(rand.NewSource(1)))
	if _, err := Ttv(h, 0, v, parallel.Options{}); err == nil {
		t.Fatal("Ttv accepted a hierarchy whose leaf is another mode")
	}
}

// NNZ returns the stored non-zero count.
func (h *Hierarchy) NNZ() int { return len(h.Vals) }

// ToCOO expands the hierarchy back to coordinate format (tests and the
// conversion planner's round-trip checks).
func (h *Hierarchy) ToCOO() *tensor.COO {
	return &tensor.COO{
		Dims: append([]tensor.Index(nil), h.Dims...),
		Inds: h.unfold(h.Depth() - 1),
		Vals: append([]tensor.Value(nil), h.Vals...),
	}
}
