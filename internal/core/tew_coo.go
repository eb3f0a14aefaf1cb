package core

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/gpusim"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TewPlan is the prepared state of a COO element-wise kernel (§2.1, §3.2):
// operands validated, output non-zero pattern predicted, and output space
// with indices preallocated, so Execute* performs only the value
// computation the paper times.
type TewPlan struct {
	// X and Y are the operands (possibly re-sorted clones when a general
	// pattern merge was required).
	X, Y *tensor.COO
	// Op is the element-wise operation.
	Op Op
	// SamePattern records whether the operands share their non-zero
	// pattern entry-for-entry, the fast path the paper analyzes.
	SamePattern bool
	// Out is the preallocated output; its index arrays are final and its
	// values are recomputed by each Execute call.
	Out *tensor.COO
	// xi and yi map each output entry to its source position in X and Y
	// for the general (different-pattern) case; -1 means the operand has
	// no entry at that coordinate. Both are nil on the same-pattern path.
	xi, yi []int32
}

// PrepareTew validates the operands and builds the output pattern.
// Same-pattern inputs take the fast path with the output indices aliased
// to X's (they are read-only to the kernels). Different patterns trigger
// the general sorted merge: union of coordinates for Add/Sub, intersection
// for Mul/Div (absent entries are zero, and zero products/dividends are
// not stored).
func PrepareTew(x, y *tensor.COO, op Op) (*TewPlan, error) {
	if !tensor.SameShape(x, y) {
		return nil, tensor.ErrShapeMismatch
	}
	p := &TewPlan{X: x, Y: y, Op: op}
	if samePattern(x, y) {
		p.SamePattern = true
		p.Out = &tensor.COO{
			Dims: append([]tensor.Index(nil), x.Dims...),
			Inds: x.Inds,
			Vals: make([]tensor.Value, x.NNZ()),
		}
		return p, nil
	}
	// General case: sorted coordinate merge.
	xs, ys := x, y
	natural := tensor.OtherModes(x.Order(), -1)
	if !xs.IsSortedBy(natural) {
		xs = x.Clone()
		xs.SortNatural()
	}
	if !ys.IsSortedBy(natural) {
		ys = y.Clone()
		ys.SortNatural()
	}
	p.X, p.Y = xs, ys
	union := op == Add || op == Sub
	n := x.Order()
	out := tensor.NewCOO(x.Dims, max(xs.NNZ(), ys.NNZ()))
	idx := make([]tensor.Index, n)
	a, b := 0, 0
	for a < xs.NNZ() || b < ys.NNZ() {
		c := compareAt(xs, a, ys, b)
		switch {
		case c == 0:
			xs.Entry(a, idx)
			out.Append(idx, 0)
			p.xi = append(p.xi, int32(a))
			p.yi = append(p.yi, int32(b))
			a++
			b++
		case c < 0:
			if union {
				xs.Entry(a, idx)
				out.Append(idx, 0)
				p.xi = append(p.xi, int32(a))
				p.yi = append(p.yi, -1)
			}
			a++
		default:
			if union {
				ys.Entry(b, idx)
				out.Append(idx, 0)
				p.xi = append(p.xi, -1)
				p.yi = append(p.yi, int32(b))
			}
			b++
		}
	}
	p.Out = out
	return p, nil
}

// compareAt compares entry a of xs against entry b of ys in natural
// coordinate order, treating an exhausted operand as +infinity.
func compareAt(xs *tensor.COO, a int, ys *tensor.COO, b int) int {
	switch {
	case a >= xs.NNZ() && b >= ys.NNZ():
		return 0
	case a >= xs.NNZ():
		return 1
	case b >= ys.NNZ():
		return -1
	}
	for n := range xs.Inds {
		ia, ib := xs.Inds[n][a], ys.Inds[n][b]
		if ia != ib {
			if ia < ib {
				return -1
			}
			return 1
		}
	}
	return 0
}

func samePattern(x, y *tensor.COO) bool {
	if x.NNZ() != y.NNZ() {
		return false
	}
	for n := range x.Inds {
		xi, yi := x.Inds[n], y.Inds[n]
		for m := range xi {
			if xi[m] != yi[m] {
				return false
			}
		}
	}
	return true
}

// ExecuteSeq runs the value computation sequentially and returns the
// (plan-owned) output tensor.
func (p *TewPlan) ExecuteSeq() *tensor.COO {
	p.executeRange(0, p.Out.NNZ())
	return p.Out
}

// ExecuteOMP runs the value computation with the OpenMP-style runtime.
func (p *TewPlan) ExecuteOMP(opt parallel.Options) *tensor.COO {
	parallel.For(p.Out.NNZ(), opt, func(lo, hi, _ int) {
		p.executeRange(lo, hi)
	})
	return p.Out
}

// ExecuteGPU runs the COO-Tew-GPU kernel: a 1-D grid of 1-D thread blocks,
// one thread per non-zero (§3.2.2).
func (p *TewPlan) ExecuteGPU(dev *gpusim.Device) *tensor.COO {
	xv, yv, zv := p.X.Vals, p.Y.Vals, p.Out.Vals
	op := p.Op
	if p.SamePattern {
		tewGPU(dev, xv, yv, zv, op)
		return p.Out
	}
	m := len(zv)
	if m == 0 {
		return p.Out
	}
	xi, yi := p.xi, p.yi
	grid, block := perNNZLaunch(m)
	dev.Launch(grid, block, func(ctx gpusim.Ctx) {
		i := ctx.GlobalX()
		if i >= m {
			return
		}
		var a, b tensor.Value
		if s := xi[i]; s >= 0 {
			a = xv[s]
		}
		if s := yi[i]; s >= 0 {
			b = yv[s]
		}
		zv[i] = op.Apply(a, b)
	})
	return p.Out
}

func (p *TewPlan) executeRange(lo, hi int) {
	xv, yv, zv := p.X.Vals, p.Y.Vals, p.Out.Vals
	if p.SamePattern {
		tewValues(xv, yv, zv, p.Op, lo, hi)
		return
	}
	op := p.Op
	for i := lo; i < hi; i++ {
		var a, b tensor.Value
		if s := p.xi[i]; s >= 0 {
			a = xv[s]
		}
		if s := p.yi[i]; s >= 0 {
			b = yv[s]
		}
		zv[i] = op.Apply(a, b)
	}
}

// tewValues is the same-pattern Tew value computation over non-zeros
// [lo, hi), z = x op y: the one loop behind the COO and HiCOO plans,
// whose kernels differ only in preprocessing (§3.4.1). With AVX2 one
// assembly call computes the first (hi−lo)&^31 values and the loops below
// the others.
func tewValues(xv, yv, zv []tensor.Value, op Op, lo, hi int) {
	if n := (hi - lo) &^ 31; cpu.AVX2 && n > 0 {
		tewAVX2(zv[lo:hi], xv[lo:hi], yv[lo:hi], op) // an unknown op panics below
		lo += n
	}
	switch op {
	case Add:
		for i := lo; i < hi; i++ {
			zv[i] = xv[i] + yv[i]
		}
	case Sub:
		for i := lo; i < hi; i++ {
			zv[i] = xv[i] - yv[i]
		}
	case Mul:
		for i := lo; i < hi; i++ {
			zv[i] = xv[i] * yv[i]
		}
	case Div:
		for i := lo; i < hi; i++ {
			zv[i] = xv[i] / yv[i]
		}
	default:
		panic(fmt.Sprintf("core: unknown op %v", op))
	}
}

// tewGPU is the same-pattern Tew GPU kernel, shared by both formats: one
// thread per non-zero.
func tewGPU(dev *gpusim.Device, xv, yv, zv []tensor.Value, op Op) {
	m := len(zv)
	if m == 0 {
		return
	}
	grid, block := perNNZLaunch(m)
	dev.Launch(grid, block, func(ctx gpusim.Ctx) {
		if i := ctx.GlobalX(); i < m {
			zv[i] = op.Apply(xv[i], yv[i])
		}
	})
}

// perNNZLaunch is the launch geometry of the element-wise GPU kernels
// (Tew, Ts): a 1-D grid of 256-thread blocks, one thread per non-zero.
func perNNZLaunch(m int) (grid, block gpusim.Dim3) {
	block = gpusim.Dim1(gpusim.DefaultBlockThreads)
	return gpusim.Grid1DFor(m, block.X), block
}

// FlopCount returns the floating-point work of one execution (Table 1:
// M flops for Tew).
func (p *TewPlan) FlopCount() int64 { return int64(p.Out.NNZ()) }

// Tew is the convenience one-shot form: prepare and execute sequentially.
func Tew(x, y *tensor.COO, op Op) (*tensor.COO, error) {
	p, err := PrepareTew(x, y, op)
	if err != nil {
		return nil, err
	}
	return p.ExecuteSeq(), nil
}
