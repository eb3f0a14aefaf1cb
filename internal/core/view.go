package core

import (
	"fmt"

	"repro/internal/tensor"
)

// FiberView is all that Ttv and Ttm need to know about the format their
// input is stored in: fiber f of the product mode spans the non-zeros
// [Fptr[f], Fptr[f+1]) of a product-index column and a value column. A
// COO tensor sorted for the mode, a gHiCOO tensor with the mode left
// uncompressed and a level hierarchy with the mode at the leaves
// (internal/levels) all are that; formats differ in how they locate the
// columns and derive the output skeleton, not in the value computation
// (fiber.go). A plan aliases the arrays, and a Ttv plan may keep a copy
// of them in another order (ttv_layout.go): they must not change under it.
type FiberView struct {
	Fptr []int64        // MF+1 fiber start offsets into KInd/Vals
	KInd []tensor.Index // product-mode index of each non-zero
	Vals []tensor.Value // non-zero values, fiber-contiguous
	Dims []tensor.Index // size of every mode of the input
	Mode int            // product mode n
}

// kernel binds the view to freshly allocated output values, r per
// fiber: the one place a fiberKernel is made.
func (v FiberView) kernel(r int) fiberKernel {
	return fiberKernel{
		fptr: v.Fptr, kInd: v.KInd, vals: v.Vals, out: make([]tensor.Value, (len(v.Fptr)-1)*r),
		mode: v.Mode, kDim: int(v.Dims[v.Mode]), r: r,
	}
}

// skeleton checks the view against the COO-shaped output skeleton a
// format derived for it — cols holds, per mode of the input, that mode's
// index of every fiber (the product mode's entry is ignored) — and
// returns the output's index arrays: the other modes' columns.
func (v FiberView) skeleton(cols [][]tensor.Index) ([][]tensor.Index, error) {
	mf := len(v.Fptr) - 1
	if v.Mode < 0 || v.Mode >= len(v.Dims) || len(cols) != len(v.Dims) ||
		mf < 0 || v.Fptr[mf] != int64(len(v.Vals)) || len(v.KInd) != len(v.Vals) {
		return nil, fmt.Errorf("core: malformed fiber view: mode %d of %d, %d skeleton columns, %d indices for %d values",
			v.Mode, len(v.Dims), len(cols), len(v.KInd), len(v.Vals))
	}
	inds := make([][]tensor.Index, 0, len(cols))
	for _, n := range tensor.OtherModes(len(cols), v.Mode) {
		if len(cols[n]) != mf {
			return nil, fmt.Errorf("core: output skeleton indexes %d fibers in mode %d, the view has %d", len(cols[n]), n, mf)
		}
		inds = append(inds, cols[n])
	}
	return inds, nil
}

// NewTtvPlan prepares Ttv over any format's fiber view and skeleton
// columns: the plan owns an order-(N-1) COO output with one non-zero per
// fiber, indices final, values refilled by every Execute, and the
// length-grouped layout its whole-tensor paths run over when the fibers'
// lengths call for one (ttv_layout.go).
func NewTtvPlan(v FiberView, cols [][]tensor.Index) (*TtvPlan, error) {
	p, err := newTtvPlan(v, cols)
	if err != nil {
		return nil, err
	}
	p.k.grouped = p.k.groupByLength()
	return p, nil
}

// newTtvPlan is NewTtvPlan without the length-grouped layout.
func newTtvPlan(v FiberView, cols [][]tensor.Index) (*TtvPlan, error) {
	if len(v.Dims) < 2 {
		return nil, fmt.Errorf("core: Ttv needs an order >= 2 tensor")
	}
	inds, err := v.skeleton(cols)
	if err != nil {
		return nil, err
	}
	k := v.kernel(1)
	out := &tensor.COO{Dims: make([]tensor.Index, 0, len(inds)), Inds: inds, Vals: k.out}
	for _, n := range tensor.OtherModes(len(v.Dims), v.Mode) {
		out.Dims = append(out.Dims, v.Dims[n])
	}
	return &TtvPlan{Mode: v.Mode, Fptr: v.Fptr, Out: out, k: k}, nil
}

// NewTtmPlan is NewTtvPlan for Ttm with r matrix columns: the plan owns
// an sCOO output with the product mode dense of size r, a row per fiber.
func NewTtmPlan(v FiberView, cols [][]tensor.Index, r int) (*TtmPlan, error) {
	if r <= 0 {
		return nil, fmt.Errorf("core: Ttm needs R >= 1, got %d", r)
	}
	inds, err := v.skeleton(cols)
	if err != nil {
		return nil, err
	}
	k := v.kernel(r)
	out := &tensor.SemiCOO{Dims: append([]tensor.Index(nil), v.Dims...), DenseModes: []int{v.Mode}, Inds: inds, Vals: k.out}
	out.Dims[v.Mode] = tensor.Index(r)
	return &TtmPlan{Mode: v.Mode, R: r, Fptr: v.Fptr, Out: out, k: k}, nil
}

// cooFibers is the preprocessing COO-Ttv and COO-Ttm share (§3.2): sort
// for the product mode unless the tensor already is in fiber order, find
// the fibers, and read the skeleton columns off the fiber heads (the
// sparse-dense property), exactly sized.
func cooFibers(x *tensor.COO, mode int) (*tensor.COO, FiberView, [][]tensor.Index) {
	xs := x
	if !xs.IsSortedBy(tensor.ModeOrder(x.Order(), mode)) {
		xs = x.Clone()
		xs.SortForMode(mode)
	}
	fptr := xs.FiberPointers(mode)
	heads := make([][]tensor.Index, x.Order())
	for _, n := range tensor.OtherModes(x.Order(), mode) {
		head, src := make([]tensor.Index, len(fptr)-1), xs.Inds[n]
		for f := range head {
			head[f] = src[fptr[f]]
		}
		heads[n] = head
	}
	return xs, FiberView{Fptr: fptr, KInd: xs.Inds[mode], Vals: xs.Vals, Dims: x.Dims, Mode: mode}, heads
}
