package core

import (
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/hicoo"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// MttkrpHiCOOPlan is the HiCOO Mttkrp kernel (Algorithm 2). The factor
// matrices are addressed through per-block base rows (Ab, Bb, Cb) so the
// inner loop works purely on 8-bit element indices, which increases
// locality via blocking and Morton-order construction. CPU parallelism is
// over tensor blocks rather than non-zeros; because distinct tensor blocks
// can still share output block-rows, updates remain atomic — and on GPUs
// the per-block mapping loses COO's balanced non-zero distribution, which
// is why the paper observes HiCOO-Mttkrp-GPU below COO-Mttkrp-GPU.
type MttkrpHiCOOPlan struct {
	// X is the input tensor in HiCOO format.
	X *hicoo.HiCOO
	// Mode is the Mttkrp mode n.
	Mode int
	// R is the factor-matrix column count.
	R int
	// Out is the dense output matrix, zeroed at the start of each Execute.
	Out *tensor.Matrix
	// LastStrategy records the reduction strategy the most recent
	// ExecuteOMP call resolved to (for harness reporting).
	LastStrategy parallel.Strategy
}

// PrepareMttkrpHiCOO validates the mode and allocates the output matrix.
func PrepareMttkrpHiCOO(x *hicoo.HiCOO, mode, r int) (*MttkrpHiCOOPlan, error) {
	if mode < 0 || mode >= x.Order() {
		return nil, fmt.Errorf("core: Mttkrp mode %d out of range for order-%d tensor", mode, x.Order())
	}
	if x.Order() < 2 {
		return nil, fmt.Errorf("core: Mttkrp needs an order >= 2 tensor")
	}
	if r <= 0 {
		return nil, fmt.Errorf("core: Mttkrp needs R >= 1, got %d", r)
	}
	return &MttkrpHiCOOPlan{X: x, Mode: mode, R: r, Out: tensor.NewMatrix(int(x.Dims[mode]), r)}, nil
}

func (p *MttkrpHiCOOPlan) checkMats(mats []*tensor.Matrix) error {
	if len(mats) != p.X.Order() {
		return fmt.Errorf("core: Mttkrp got %d factor matrices, want %d", len(mats), p.X.Order())
	}
	for m, u := range mats {
		if m == p.Mode {
			continue
		}
		if u == nil {
			return fmt.Errorf("core: Mttkrp factor matrix %d is nil", m)
		}
		if u.Rows != int(p.X.Dims[m]) || u.Cols != p.R {
			return fmt.Errorf("core: Mttkrp factor %d is %dx%d, want %dx%d", m, u.Rows, u.Cols, p.X.Dims[m], p.R)
		}
	}
	return nil
}

// ExecuteSeq runs Algorithm 2 sequentially over the tensor blocks.
func (p *MttkrpHiCOOPlan) ExecuteSeq(mats []*tensor.Matrix) (*tensor.Matrix, error) {
	if err := p.checkMats(mats); err != nil {
		return nil, err
	}
	p.Out.Zero()
	p.executeBlocks(0, p.X.NumBlocks(), mats, p.Out.Data, false)
	return p.Out, nil
}

// ExecuteOMP runs HiCOO-Mttkrp-OMP: "parfor b = 1..nb" over tensor blocks
// (Algorithm 2). Distinct blocks may share output rows, so the shared
// output needs protection: atomic updates, or pooled per-worker private
// copies merged after the loop (Options.Strategy; Auto adapts per call).
// The reference implementation deliberately skips the lock-avoiding
// scheduling of the HiCOO paper (§3.4).
func (p *MttkrpHiCOOPlan) ExecuteOMP(mats []*tensor.Matrix, opt parallel.Options) (*tensor.Matrix, error) {
	if err := p.checkMats(mats); err != nil {
		return nil, err
	}
	nb := p.X.NumBlocks()
	st, threads := planReduction(opt, nb, len(p.Out.Data), p.X.NNZ()*p.R)
	p.LastStrategy = st
	opt.Threads = threads
	if st == parallel.Privatized {
		if err := privatizedReduce(nb, threads, opt, p.Out.Data, func(lo, hi int, priv []tensor.Value) {
			p.executeBlocks(lo, hi, mats, priv, false)
		}); err != nil {
			return nil, err
		}
		return p.Out, nil
	}
	p.Out.Zero()
	atomicUpd := threads > 1
	if err := parallel.For(nb, opt, func(lo, hi, _ int) {
		p.executeBlocks(lo, hi, mats, p.Out.Data, atomicUpd)
	}); err != nil {
		return nil, err
	}
	return p.Out, nil
}

// ExecuteGPU runs the unoptimized HiCOO-Mttkrp-GPU of §3.4.2: one tensor
// block maps to one CUDA thread block (x-threads over columns, y-threads
// striding the block's non-zeros) and atomicAdd protects the output. The
// non-uniform non-zeros per tensor block produce the load imbalance the
// paper reports.
func (p *MttkrpHiCOOPlan) ExecuteGPU(dev *gpusim.Device, mats []*tensor.Matrix) (*tensor.Matrix, error) {
	if err := p.checkMats(mats); err != nil {
		return nil, err
	}
	p.Out.Zero()
	nb := p.X.NumBlocks()
	if nb == 0 {
		return p.Out, nil
	}
	r := p.R
	ny := gpusim.DefaultBlockThreads / r
	if ny < 1 {
		ny = 1
	}
	block := gpusim.Dim2(r, ny)
	grid := gpusim.Dim1(nb)
	h := p.X
	bits := h.BlockBits
	out := p.Out.Data
	xv := h.Vals
	order := h.Order()
	mode := p.Mode
	if _, err := dev.TryLaunch(grid, block, func(ctx gpusim.Ctx) {
		b := ctx.BlockIdx.X
		col := ctx.ThreadIdx.X
		outBase := int(h.BInds[mode][b]) << bits
		for x := h.BPtr[b] + int64(ctx.ThreadIdx.Y); x < h.BPtr[b+1]; x += int64(ctx.BlockDim.Y) {
			v := xv[x]
			for mo := 0; mo < order; mo++ {
				if mo == mode {
					continue
				}
				row := (int(h.BInds[mo][b]) << bits) + int(h.EInds[mo][x])
				v *= mats[mo].Data[row*r+col]
			}
			oi := (outBase + int(h.EInds[mode][x])) * r
			gpusim.AtomicAdd(&out[oi+col], v)
		}
	}); err != nil {
		return nil, err
	}
	return p.Out, nil
}

// executeBlocks processes tensor blocks [lo, hi) following Algorithm 2,
// adding into out (the shared output or a worker's private copy) either
// plainly or atomically: each tensor block is one mttkrpRows block whose
// bases are the block matrix bases Ab, Bb, Cb of line 3 and whose row
// indices are the 8-bit element indices.
func (p *MttkrpHiCOOPlan) executeBlocks(lo, hi int, mats []*tensor.Matrix, out []tensor.Value, atomicUpd bool) {
	h := p.X
	var buf [mttkrpStackOperands]mttkrpOperand[uint8]
	ops := buf[:0]
	for mo, ind := range h.EInds {
		if mo != p.Mode {
			ops = append(ops, mttkrpOperand[uint8]{ind: ind, data: mats[mo].Data})
		}
	}
	dst := mttkrpOperand[uint8]{ind: h.EInds[p.Mode], data: out}
	for b := lo; b < hi; b++ {
		i := 0
		for mo, bind := range h.BInds {
			base := int(bind[b]) << h.BlockBits
			if mo == p.Mode {
				dst.base = base
				continue
			}
			ops[i].base = base
			i++
		}
		mttkrpRows(&dst, ops, h.Vals, p.R, int(h.BPtr[b]), int(h.BPtr[b+1]), atomicUpd)
	}
}

// FlopCount returns the floating-point work of one execution (N·M·R).
func (p *MttkrpHiCOOPlan) FlopCount() int64 {
	return int64(p.X.Order()) * int64(p.X.NNZ()) * int64(p.R)
}
