package core

import (
	"fmt"
	"sort"

	"repro/internal/tensor"
)

// TtmSemiPlan is the tensor-times-matrix kernel for a SEMI-SPARSE input
// (sCOO): the multiplication of an already partially dense tensor with a
// matrix along one of its remaining sparse modes. It is the kernel a
// Tucker TTM-chain needs after its first step (§7), where each Ttm output
// is semi-sparse; chaining through TtmSemi avoids re-expanding to COO.
type TtmSemiPlan struct {
	// X is the semi-sparse input.
	X *tensor.SemiCOO
	// Mode is the (sparse) product mode n.
	Mode int
	// R is the matrix column count.
	R int
	// Out is the preallocated semi-sparse output: X's dense modes plus
	// Mode (now of size R).
	Out *tensor.SemiCOO

	// outFiberInputs groups the input fibers feeding each output fiber
	// (they differ only in their mode-n coordinate).
	outFiberInputs [][]int32
	// kOf is each input fiber's mode-n coordinate.
	kOf []tensor.Index
	// baseOff maps an input dense offset to its output dense offset at
	// r = 0; strideR is the output stride of the new dense mode.
	baseOff []int32
	strideR int
}

// PrepareTtmSemi builds the plan: groups input fibers by their remaining
// sparse coordinates, allocates the output (with indices), and precomputes
// the dense-layout mapping.
func PrepareTtmSemi(x *tensor.SemiCOO, mode, r int) (*TtmSemiPlan, error) {
	if mode < 0 || mode >= x.Order() {
		return nil, fmt.Errorf("core: TtmSemi mode %d out of range for order-%d tensor", mode, x.Order())
	}
	if x.IsDenseMode(mode) {
		return nil, fmt.Errorf("core: TtmSemi mode %d is already dense", mode)
	}
	if r <= 0 {
		return nil, fmt.Errorf("core: TtmSemi needs R >= 1, got %d", r)
	}
	sparse := x.SparseModes()
	modeSlot := -1
	for si, n := range sparse {
		if n == mode {
			modeSlot = si
		}
	}
	if modeSlot < 0 {
		return nil, fmt.Errorf("core: TtmSemi internal: mode %d not found among sparse modes", mode)
	}

	outDims := append([]tensor.Index(nil), x.Dims...)
	outDims[mode] = tensor.Index(r)
	outDense := append(append([]int(nil), x.DenseModes...), mode)
	sort.Ints(outDense)

	p := &TtmSemiPlan{X: x, Mode: mode, R: r}
	p.Out = tensor.NewSemiCOO(outDims, outDense, 16)

	// Group input fibers by their sparse coordinates excluding mode.
	nf := x.NumFibers()
	p.kOf = make([]tensor.Index, nf)
	groups := make(map[string]int, nf)
	key := make([]byte, 4*(len(sparse)-1))
	outSparseIdx := make([]tensor.Index, len(sparse)-1)
	for f := 0; f < nf; f++ {
		p.kOf[f] = x.Inds[modeSlot][f]
		w := 0
		for si := range sparse {
			if si == modeSlot {
				continue
			}
			i := x.Inds[si][f]
			key[4*w], key[4*w+1], key[4*w+2], key[4*w+3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
			outSparseIdx[w] = i
			w++
		}
		of, ok := groups[string(key)]
		if !ok {
			of = p.Out.AppendFiber(outSparseIdx)
			groups[string(key)] = of
			p.outFiberInputs = append(p.outFiberInputs, nil)
		}
		p.outFiberInputs[of] = append(p.outFiberInputs[of], int32(f))
	}

	// Dense-layout mapping: decompose each input dense offset over X's
	// dense modes and recompose over the output's dense modes with the
	// new mode at 0; record the new mode's stride.
	dsIn := x.DenseSize()
	p.baseOff = make([]int32, dsIn)
	inCoords := make([]tensor.Index, len(x.DenseModes))
	stride := 1
	for i := len(outDense) - 1; i >= 0; i-- {
		if outDense[i] == mode {
			p.strideR = stride
		}
		stride *= int(outDims[outDense[i]])
	}
	for d := 0; d < dsIn; d++ {
		// Unravel d over X's dense modes (row-major, ascending).
		off := d
		for i := len(x.DenseModes) - 1; i >= 0; i-- {
			dim := int(x.Dims[x.DenseModes[i]])
			inCoords[i] = tensor.Index(off % dim)
			off /= dim
		}
		// Ravel over the output dense modes with mode's coordinate 0.
		out := 0
		for _, n := range outDense {
			out *= int(outDims[n])
			if n == mode {
				continue // coordinate 0
			}
			for i, xn := range x.DenseModes {
				if xn == n {
					out += int(inCoords[i])
					break
				}
			}
		}
		p.baseOff[d] = int32(out)
	}
	return p, nil
}

// ExecuteSeq runs the value computation sequentially: each output fiber
// is zeroed, then accumulates the R-expanded contributions of the input
// fibers that feed it.
func (p *TtmSemiPlan) ExecuteSeq(u *tensor.Matrix) (*tensor.SemiCOO, error) {
	if err := p.checkMat(u); err != nil {
		return nil, err
	}
	dsIn := p.X.DenseSize()
	r := p.R
	ud := u.Data
	for of, inputs := range p.outFiberInputs {
		out := p.Out.FiberVals(of)
		for i := range out {
			out[i] = 0
		}
		for _, f := range inputs {
			in := p.X.Vals[int(f)*dsIn : (int(f)+1)*dsIn]
			urow := ud[int(p.kOf[f])*r : int(p.kOf[f])*r+r]
			for d, v := range in {
				if v == 0 {
					continue
				}
				base := int(p.baseOff[d])
				for c := 0; c < r; c++ {
					out[base+c*p.strideR] += v * urow[c]
				}
			}
		}
	}
	return p.Out, nil
}

func (p *TtmSemiPlan) checkMat(u *tensor.Matrix) error {
	if u.Rows != int(p.X.Dims[p.Mode]) || u.Cols != p.R {
		return fmt.Errorf("core: TtmSemi matrix is %dx%d, want %dx%d", u.Rows, u.Cols, p.X.Dims[p.Mode], p.R)
	}
	return nil
}

// FlopCount returns the floating-point work of one execution: two flops
// per stored input value per output column.
func (p *TtmSemiPlan) FlopCount() int64 {
	return 2 * int64(len(p.X.Vals)) * int64(p.R)
}

// TtmSemi is the convenience one-shot form.
func TtmSemi(x *tensor.SemiCOO, u *tensor.Matrix, mode int) (*tensor.SemiCOO, error) {
	p, err := PrepareTtmSemi(x, mode, u.Cols)
	if err != nil {
		return nil, err
	}
	return p.ExecuteSeq(u)
}
