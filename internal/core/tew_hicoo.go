package core

import (
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/hicoo"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TewHiCOOPlan is the HiCOO element-wise kernel (§3.4.1): the value
// computation is identical to the COO kernel — only the preprocessing
// differs, allocating and index-setting the output in HiCOO format. The
// operands must share their non-zero pattern block-for-block (the case
// the paper analyzes); differing patterns are supported via the COO path.
type TewHiCOOPlan struct {
	// X and Y are the operands.
	X, Y *hicoo.HiCOO
	// Op is the element-wise operation.
	Op Op
	// Out is the preallocated output; its block structure aliases X's
	// (read-only to the kernel) with a fresh value array.
	Out *hicoo.HiCOO
}

// PrepareTewHiCOO validates that the operands are structurally identical
// HiCOO tensors and preallocates the output.
func PrepareTewHiCOO(x, y *hicoo.HiCOO, op Op) (*TewHiCOOPlan, error) {
	if err := sameHiCOOStructure(x, y); err != nil {
		return nil, err
	}
	return &TewHiCOOPlan{X: x, Y: y, Op: op, Out: samePatternHiCOO(x)}, nil
}

// samePatternHiCOO preallocates an output with x's non-zero pattern: the
// block structure aliases x's (read-only to the kernels) around a fresh
// value array — all the HiCOO-specific preprocessing Tew and Ts need.
func samePatternHiCOO(x *hicoo.HiCOO) *hicoo.HiCOO {
	return &hicoo.HiCOO{
		Dims:      append([]tensor.Index(nil), x.Dims...),
		BlockBits: x.BlockBits,
		BPtr:      x.BPtr,
		BInds:     x.BInds,
		EInds:     x.EInds,
		Vals:      make([]tensor.Value, x.NNZ()),
	}
}

// sameHiCOOStructure checks full structural equality of block and element
// indices (an O(M) preprocessing-stage check).
func sameHiCOOStructure(x, y *hicoo.HiCOO) error {
	if len(x.Dims) != len(y.Dims) || x.NNZ() != y.NNZ() || x.NumBlocks() != y.NumBlocks() || x.BlockBits != y.BlockBits {
		return fmt.Errorf("core: HiCOO Tew requires identically structured operands (use the COO path for differing patterns)")
	}
	for n := range x.Dims {
		if x.Dims[n] != y.Dims[n] {
			return tensor.ErrShapeMismatch
		}
	}
	for b := range x.BPtr {
		if x.BPtr[b] != y.BPtr[b] {
			return fmt.Errorf("core: HiCOO Tew operands have different block partitions")
		}
	}
	for n := range x.BInds {
		for b := range x.BInds[n] {
			if x.BInds[n][b] != y.BInds[n][b] {
				return fmt.Errorf("core: HiCOO Tew operands have different block indices")
			}
		}
		for e := range x.EInds[n] {
			if x.EInds[n][e] != y.EInds[n][e] {
				return fmt.Errorf("core: HiCOO Tew operands have different element indices")
			}
		}
	}
	return nil
}

// ExecuteSeq runs the value computation sequentially.
func (p *TewHiCOOPlan) ExecuteSeq() *hicoo.HiCOO {
	tewValues(p.X.Vals, p.Y.Vals, p.Out.Vals, p.Op, 0, p.X.NNZ())
	return p.Out
}

// ExecuteOMP runs the value computation with the OpenMP-style runtime.
func (p *TewHiCOOPlan) ExecuteOMP(opt parallel.Options) *hicoo.HiCOO {
	parallel.For(p.X.NNZ(), opt, func(lo, hi, _ int) {
		tewValues(p.X.Vals, p.Y.Vals, p.Out.Vals, p.Op, lo, hi)
	})
	return p.Out
}

// ExecuteGPU runs HiCOO-Tew-GPU, which the paper notes shares its
// execution code with the COO version: one thread per non-zero.
func (p *TewHiCOOPlan) ExecuteGPU(dev *gpusim.Device) *hicoo.HiCOO {
	tewGPU(dev, p.X.Vals, p.Y.Vals, p.Out.Vals, p.Op)
	return p.Out
}

// FlopCount returns the floating-point work of one execution (M flops).
func (p *TewHiCOOPlan) FlopCount() int64 { return int64(p.X.NNZ()) }

// TsHiCOOPlan is the HiCOO tensor-scalar kernel; like Tew, its value
// computation matches the COO version with HiCOO output preprocessing.
type TsHiCOOPlan struct {
	// X is the input tensor.
	X *hicoo.HiCOO
	// S is the (already normalized) scalar operand.
	S tensor.Value
	// Op is Add or Mul after normalization.
	Op Op
	// Out aliases X's block structure with a fresh value array.
	Out *hicoo.HiCOO
}

// PrepareTsHiCOO normalizes the operation (Sub→Add, Div→Mul) and
// preallocates the output.
func PrepareTsHiCOO(x *hicoo.HiCOO, s tensor.Value, op Op) (*TsHiCOOPlan, error) {
	s, op, err := normalizeTs(s, op)
	if err != nil {
		return nil, err
	}
	return &TsHiCOOPlan{X: x, S: s, Op: op, Out: samePatternHiCOO(x)}, nil
}

// ExecuteSeq runs the value computation sequentially.
func (p *TsHiCOOPlan) ExecuteSeq() *hicoo.HiCOO {
	tsValues(p.X.Vals, p.Out.Vals, p.S, p.Op, 0, p.X.NNZ())
	return p.Out
}

// ExecuteOMP runs the value computation with the OpenMP-style runtime.
func (p *TsHiCOOPlan) ExecuteOMP(opt parallel.Options) *hicoo.HiCOO {
	parallel.For(p.X.NNZ(), opt, func(lo, hi, _ int) {
		tsValues(p.X.Vals, p.Out.Vals, p.S, p.Op, lo, hi)
	})
	return p.Out
}

// ExecuteGPU runs HiCOO-Ts-GPU: one thread per non-zero.
func (p *TsHiCOOPlan) ExecuteGPU(dev *gpusim.Device) *hicoo.HiCOO {
	tsGPU(dev, p.X.Vals, p.Out.Vals, p.S, p.Op)
	return p.Out
}

// FlopCount returns the floating-point work of one execution (M flops).
func (p *TsHiCOOPlan) FlopCount() int64 { return int64(p.X.NNZ()) }
