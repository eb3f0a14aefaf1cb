package levels

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/csf"
	"repro/internal/tensor"
)

// Generic kernels, none with a body here: a hierarchy with the product
// mode at the leaves is a fiber view that core's Ttv and Ttm plans run
// on, and one that assembles the output mode first resolves into the
// plain tree csf's Mttkrp plan walks. They are the composition dividend
// of the level abstraction: a format gets all three by declaring its levels.

// PrepareMttkrp prepares the matricized-tensor-times-Khatri-Rao product
// for one output mode as csf's tree plan (DESIGN.md §23). The nodes of
// the level completing the output mode become the roots, each with its
// assembled row; below them only complete levels remain, with full
// coordinates — a partial level adds its children's sums straight into
// its parent's, so composing the pointers across it changes no sum — and
// a level with no coarse bits above it is aliased, not copied. Parallel
// units are the level-0 nodes: when they belong to the output mode
// (every declared signature, slot 0) units own their rows and commit
// without atomics — CSF's structural advantage, inherited generically.
func PrepareMttkrp(h *Hierarchy, mode, r int) (*csf.MttkrpPlan, error) {
	complete := h.CompletionLevel(mode)
	if complete < 0 || complete >= h.Depth()-1 {
		return nil, fmt.Errorf("%w: %s completes mode %d at level %d of %d", ErrMttkrpPrefix, h.Sig.Name, mode, complete, h.Depth())
	}
	t := csf.Tree{Dims: h.Dims, Vals: h.Vals, Shared: h.Mode(0) != mode}
	var ptr []int64 // children of the last level kept, in the level being visited
	for l, d := range h.Sig.Levels {
		switch {
		case l < complete && !d.Partial:
			return nil, fmt.Errorf("%w: %s level %d completes mode %d before output mode %d", ErrMttkrpPrefix, h.Sig.Name, l, h.Mode(l), mode)
		case l < complete:
			t.Span = compose(t.Span, h.Ptr[l])
		case d.Partial:
			ptr = compose(ptr, h.Ptr[l])
		default:
			if l > complete {
				t.Ptr = append(t.Ptr, ptr)
			}
			ids := h.Crd[l]
			if levelMask(h.Sig, l) != ^tensor.Index(0) { // coarser levels hold the upper bits
				ids = h.unfold(l)[h.Mode(l)]
			}
			t.Modes, t.Ids = append(t.Modes, h.Mode(l)), append(t.Ids, ids)
			if l < h.Depth()-1 {
				ptr = h.Ptr[l]
			}
		}
	}
	return csf.PrepareMttkrp(t, r)
}

// compose returns the pointers outer composed with inner — for every
// outer node, the span of its grandchildren — or inner itself under no
// outer level.
func compose(outer, inner []int64) []int64 {
	if outer == nil {
		return inner
	}
	span := make([]int64, len(outer))
	for i, child := range outer {
		span[i] = inner[child]
	}
	return span
}

// ErrNoParentLevel and ErrLeafMode are the contract errors of Ttv and
// Ttm, which reduce the leaves under every node of the second-deepest
// level: there must be one, and the leaves must complete the product mode.
// ErrMttkrpPrefix is Mttkrp's: the levels above the output mode's
// completion may hold only partial coordinates, and a level must be left
// below it to reduce.
var (
	ErrNoParentLevel = errors.New("levels: hierarchy has a single level; Ttv/Ttm need a parent level")
	ErrLeafMode      = errors.New("levels: leaf level does not complete the product mode")
	ErrMttkrpPrefix  = errors.New("levels: hierarchy does not assemble the Mttkrp output mode first")
)

// leafFibers is the preprocessing Ttv and Ttm share on a hierarchy with
// the product mode at the leaves (the mode order the grid prepares). The
// leaf level already is core's fiber view — Ptr[last-1] the fiber
// pointers, Crd[last] the product indices, Vals the values — so it is
// aliased, not walked; the output skeleton is the upper levels unfolded,
// one entry per node of the second-deepest level. Only a hierarchy that
// keeps coarse product-mode bits above the leaf (HiCOOSig) gets a
// product-index column of its own: the unfolding collects those bits per
// fiber and one pass ORs them onto the leaf coordinates.
func leafFibers(h *Hierarchy, mode int) (core.FiberView, [][]tensor.Index, error) {
	last := h.Depth() - 1
	if last < 1 {
		return core.FiberView{}, nil, fmt.Errorf("%w (%s)", ErrNoParentLevel, h.Sig.Name)
	}
	if h.Mode(last) != mode || h.Sig.Levels[last].Partial {
		return core.FiberView{}, nil, fmt.Errorf("%w: %s, mode %d", ErrLeafMode, h.Sig.Name, mode)
	}
	cols := h.unfold(last - 1)
	view := core.FiberView{Fptr: h.Ptr[last-1], KInd: h.Crd[last], Vals: h.Vals, Dims: h.Dims, Mode: mode}
	if coarse := cols[mode]; coarse != nil {
		kInd := make([]tensor.Index, len(view.KInd))
		for f, bits := range coarse {
			for x := view.Fptr[f]; x < view.Fptr[f+1]; x++ {
				kInd[x] = bits | view.KInd[x]
			}
		}
		view.KInd = kInd
	}
	return view, cols, nil
}

// PrepareTtv prepares tensor-times-vector in the product mode as a core
// fiber plan: value computation, strategy selection and plan-owned
// output are the COO kernel's (core/fiber.go), on this hierarchy's fibers.
func PrepareTtv(h *Hierarchy, mode int) (*core.TtvPlan, error) {
	view, cols, err := leafFibers(h, mode)
	if err != nil {
		return nil, err
	}
	return core.NewTtvPlan(view, cols)
}

// PrepareTtm prepares tensor-times-matrix with r matrix columns: the
// product mode becomes dense, so the output is semi-sparse with one
// r-row per fiber, matching the core kernels' convention.
func PrepareTtm(h *Hierarchy, mode, r int) (*core.TtmPlan, error) {
	view, cols, err := leafFibers(h, mode)
	if err != nil {
		return nil, err
	}
	return core.NewTtmPlan(view, cols, r)
}
