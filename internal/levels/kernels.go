package levels

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Generic kernels: one Mttkrp body that walks any hierarchy, and Ttv and
// Ttm, which have no body here at all — a hierarchy with the product
// mode at the leaves is a fiber view, and core's fiber plans run on it.
// They are the composition dividend of the level abstraction: a new
// format gets all three by declaring its levels.

// Mttkrp computes the matricized-tensor-times-Khatri-Rao product for
// one output mode over any hierarchy whose prefix up to the output
// mode's completion contains only output-mode levels and partial
// levels of other modes (the mode orders the generated grid prepares).
// Parallelism is over root nodes; when the root level belongs to the
// output mode (every declared signature, slot 0), distinct roots
// contribute distinct output-row bits, so the updates are race-free
// without atomics — CSF's structural advantage, inherited generically.
func Mttkrp(h *Hierarchy, mode int, mats []*tensor.Matrix, opt parallel.Options) (*tensor.Matrix, error) {
	order := h.Order()
	if len(mats) != order {
		return nil, fmt.Errorf("levels: got %d factor matrices, want %d", len(mats), order)
	}
	r := 0
	for n, u := range mats {
		if n == mode {
			continue
		}
		if u == nil {
			return nil, fmt.Errorf("levels: factor matrix %d is nil", n)
		}
		if r == 0 {
			r = u.Cols
		}
		if u.Rows != int(h.Dims[n]) || u.Cols != r {
			return nil, fmt.Errorf("levels: factor %d is %dx%d, want %dx%d", n, u.Rows, u.Cols, h.Dims[n], r)
		}
	}
	complete := h.CompletionLevel(mode)
	if complete < 0 || complete >= h.Depth()-1 {
		return nil, fmt.Errorf("levels: %s cannot instantiate Mttkrp for mode %d (completes at level %d)", h.Sig.Name, mode, complete)
	}
	for l := 0; l < complete; l++ {
		if h.Mode(l) != mode && !h.Sig.Levels[l].Partial {
			return nil, fmt.Errorf("levels: %s level %d completes mode %d before output mode %d", h.Sig.Name, l, h.Mode(l), mode)
		}
	}
	atomic := h.Mode(0) != mode
	out := tensor.NewMatrix(int(h.Dims[mode]), r)
	err := parallel.For(h.NumNodes(0), opt, func(lo, hi, _ int) {
		w := &mttkrpWalker{
			h: h, mode: mode, mats: mats, r: r, out: out, atomic: atomic,
			complete: complete,
			idx:      make([]tensor.Index, h.Order()),
			scratch:  make([]tensor.Value, h.Depth()*r),
		}
		w.descend(0, lo, hi)
	})
	if err != nil {
		return nil, fmt.Errorf("levels: Mttkrp: %w", err) // cancelled: out holds a partial sum
	}
	return out, nil
}

type mttkrpWalker struct {
	h        *Hierarchy
	mode     int
	mats     []*tensor.Matrix
	r        int
	out      *tensor.Matrix
	atomic   bool
	complete int
	idx      []tensor.Index // partial coordinate bits per tensor mode
	scratch  []tensor.Value // one r-vector per level
}

// descend walks levels 0..complete, assembling coordinate bits; at the
// output mode's completion it switches to the factor-accumulating
// gather over the subtree and flushes the r-vector into the output row.
func (w *mttkrpWalker) descend(level, lo, hi int) {
	h := w.h
	d := h.Sig.Levels[level]
	m := h.Mode(level)
	for node := lo; node < hi; node++ {
		save := w.idx[m]
		w.idx[m] = save | h.Crd[level][node]<<d.Shift
		clo, chi := int(h.Ptr[level][node]), int(h.Ptr[level][node+1])
		if level == w.complete {
			g := w.scratch[level*w.r : (level+1)*w.r]
			for i := range g {
				g[i] = 0
			}
			w.gather(level+1, clo, chi, g)
			row := w.out.Row(int(w.idx[w.mode]))
			if w.atomic {
				for i := 0; i < w.r; i++ {
					parallel.AtomicAddFloat32(&row[i], g[i])
				}
			} else {
				for i := 0; i < w.r; i++ {
					row[i] += g[i]
				}
			}
		} else {
			w.descend(level+1, clo, chi)
		}
		w.idx[m] = save
	}
}

// gather accumulates the subtree's Hadamard product of factor rows into
// dst: Σ_leaf val · ∏_{n≠mode} U_n(i_n,:), factored CSF-style so a
// factor row multiplies once per node, not once per leaf.
func (w *mttkrpWalker) gather(level, lo, hi int, dst []tensor.Value) {
	h := w.h
	d := h.Sig.Levels[level]
	m := h.Mode(level)
	last := h.Depth() - 1
	if level == last {
		u := w.mats[m]
		for node := lo; node < hi; node++ {
			full := w.idx[m] | h.Crd[level][node]<<d.Shift
			v := h.Vals[node]
			urow := u.Row(int(full))
			for i := 0; i < w.r; i++ {
				dst[i] += v * urow[i]
			}
		}
		return
	}
	if d.Partial {
		// Coarse bits only: stash and recurse; the factor applies at the
		// mode's completion level.
		for node := lo; node < hi; node++ {
			save := w.idx[m]
			w.idx[m] = save | h.Crd[level][node]<<d.Shift
			w.gather(level+1, int(h.Ptr[level][node]), int(h.Ptr[level][node+1]), dst)
			w.idx[m] = save
		}
		return
	}
	u := w.mats[m]
	buf := w.scratch[level*w.r : (level+1)*w.r]
	for node := lo; node < hi; node++ {
		full := w.idx[m] | h.Crd[level][node]
		for i := range buf {
			buf[i] = 0
		}
		save := w.idx[m]
		w.idx[m] = full
		w.gather(level+1, int(h.Ptr[level][node]), int(h.Ptr[level][node+1]), buf)
		w.idx[m] = save
		urow := u.Row(int(full))
		for i := 0; i < w.r; i++ {
			dst[i] += urow[i] * buf[i]
		}
	}
}

// ErrNoParentLevel and ErrLeafMode are the contract errors of Ttv and
// Ttm, which reduce the leaves under every node of the second-deepest
// level: there must be one, and the leaves must complete the product mode.
var (
	ErrNoParentLevel = errors.New("levels: hierarchy has a single level; Ttv/Ttm need a parent level")
	ErrLeafMode      = errors.New("levels: leaf level does not complete the product mode")
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
