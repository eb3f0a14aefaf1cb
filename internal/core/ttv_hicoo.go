package core

import (
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/hicoo"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TtvHiCOOPlan is the HiCOO tensor-times-vector kernel (§3.4.1). The
// input is represented in gHiCOO with the product mode left uncompressed,
// which "bypasses the blocking nature of HiCOO": fibers are contiguous
// and block-race-free, so the value computation is exactly the COO one.
// Preprocessing builds the order-(N-1) output directly in HiCOO format —
// one output non-zero per fiber, inheriting the fiber's block and element
// indices on the compressed modes.
type TtvHiCOOPlan struct {
	// X is the input in gHiCOO with only Mode uncompressed.
	X *hicoo.GHiCOO
	// Mode is the product mode n.
	Mode int
	// Fptr holds the fiber start offsets (MF+1 entries).
	Fptr []int64
	// FiberBlock maps each fiber to its gHiCOO block.
	FiberBlock []int32
	// Out is the preallocated order-(N-1) HiCOO output.
	Out *hicoo.HiCOO

	k fiberKernel // the COO value computation over (Fptr, X.UInds[0], X.Vals)
}

// PrepareTtvHiCOO converts the tensor to gHiCOO (compressing every mode
// except mode) and builds the HiCOO output skeleton.
func PrepareTtvHiCOO(x *tensor.COO, mode int, blockBits uint8) (*TtvHiCOOPlan, error) {
	if mode < 0 || mode >= x.Order() {
		return nil, fmt.Errorf("core: Ttv mode %d out of range for order-%d tensor", mode, x.Order())
	}
	if x.Order() < 2 {
		return nil, fmt.Errorf("core: Ttv needs an order >= 2 tensor")
	}
	g, view, sk := prepareFiberHiCOO(x, mode, blockBits)
	k := view.kernel(1)
	k.grouped = k.groupByLength()

	// Output dims: drop the product mode. The compressed modes of X map
	// one-to-one onto the output's modes, in order.
	outDims := make([]tensor.Index, len(g.CompModes))
	for ci, n := range g.CompModes {
		outDims[ci] = x.Dims[n]
	}
	out := &hicoo.HiCOO{
		Dims:      outDims,
		BlockBits: blockBits,
		BPtr:      sk.bptr,
		BInds:     sk.binds,
		EInds:     sk.einds,
		Vals:      k.out,
	}
	return &TtvHiCOOPlan{X: g, Mode: mode, Fptr: k.fptr, FiberBlock: sk.fiberBlock, Out: out, k: k}, nil
}

// NumFibers returns MF.
func (p *TtvHiCOOPlan) NumFibers() int { return len(p.Fptr) - 1 }

// ExecuteSeq runs the value computation sequentially.
func (p *TtvHiCOOPlan) ExecuteSeq(v tensor.Vector) (*hicoo.HiCOO, error) {
	return planOut(p.Out, p.k.ttvSeq(v))
}

// ExecuteOMP runs the value computation exactly as the COO kernel does
// (fiberKernel.ttvOMP).
func (p *TtvHiCOOPlan) ExecuteOMP(v tensor.Vector, opt parallel.Options) (*hicoo.HiCOO, error) {
	return planOut(p.Out, p.k.ttvOMP(v, opt))
}

// ExecuteGPU runs HiCOO-Ttv-GPU (same execution as COO per §3.4.2): one
// thread per fiber.
func (p *TtvHiCOOPlan) ExecuteGPU(dev *gpusim.Device, v tensor.Vector) (*hicoo.HiCOO, error) {
	return planOut(p.Out, p.k.ttvGPU(dev, 0, p.NumFibers(), v))
}

// FlopCount returns the floating-point work of one execution (2M flops).
func (p *TtvHiCOOPlan) FlopCount() int64 { return 2 * int64(p.X.NNZ()) }

// fiberSkeleton is the block structure a gHiCOO tensor's fibers induce on
// the output of Ttv (HiCOO) and Ttm (sHiCOO): one output entry per
// fiber, inheriting the fiber's block and element indices on the
// compressed modes.
type fiberSkeleton struct {
	fiberBlock []int32          // gHiCOO block of each fiber
	bptr       []int64          // first fiber of each output block
	binds      [][]tensor.Index // per compressed mode, per output block
	einds      [][]uint8        // per compressed mode, per fiber
}

// prepareFiberHiCOO is the preprocessing HiCOO-Ttv and HiCOO-Ttm share:
// convert to gHiCOO compressing every mode except the product mode,
// detect the fibers and derive the output's block skeleton. The returned
// view is over the gHiCOO arrays.
func prepareFiberHiCOO(x *tensor.COO, mode int, blockBits uint8) (*hicoo.GHiCOO, FiberView, fiberSkeleton) {
	g := hicoo.FromCOOExceptMode(x, mode, blockBits)
	fptr, fiberBlock := g.FiberPointers()
	mf := len(fptr) - 1
	nc := len(g.CompModes)
	sk := fiberSkeleton{
		fiberBlock: fiberBlock,
		binds:      make([][]tensor.Index, nc),
		einds:      make([][]uint8, nc),
	}
	for ci := 0; ci < nc; ci++ {
		sk.einds[ci] = make([]uint8, mf)
	}
	// Fibers arrive grouped by block (FiberPointers walks blocks in
	// order), so output blocks are runs of equal fiberBlock.
	for f := 0; f < mf; f++ {
		if f == 0 || fiberBlock[f] != fiberBlock[f-1] {
			sk.bptr = append(sk.bptr, int64(f))
			b := int(fiberBlock[f])
			for ci := 0; ci < nc; ci++ {
				sk.binds[ci] = append(sk.binds[ci], g.BInds[ci][b])
			}
		}
		head := fptr[f]
		for ci := 0; ci < nc; ci++ {
			sk.einds[ci][f] = g.EInds[ci][head]
		}
	}
	sk.bptr = append(sk.bptr, int64(mf))
	return g, FiberView{Fptr: fptr, KInd: g.UInds[0], Vals: g.Vals, Dims: x.Dims, Mode: mode}, sk
}
