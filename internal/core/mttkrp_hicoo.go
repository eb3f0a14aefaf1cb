package core

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/gpusim"
	"repro/internal/hicoo"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// MttkrpHiCOOPlan is the HiCOO Mttkrp kernel (Algorithm 2). The factor
// matrices are addressed through per-block base rows (Ab, Bb, Cb) so the
// inner loop works purely on 8-bit element indices, which increases
// locality via blocking and Morton-order construction. CPU parallelism is
// over tensor blocks rather than non-zeros: distinct blocks can share
// output block-rows, so ExecuteOMP gives each worker whole block-rows of
// a block-row-sorted copy of the tensor (owner-computes). On GPUs
// the per-block mapping loses COO's balanced non-zero distribution, which
// is why the paper observes HiCOO-Mttkrp-GPU below COO-Mttkrp-GPU.
type MttkrpHiCOOPlan struct {
	// X is the input tensor in HiCOO format.
	X *hicoo.HiCOO
	// Mode is the Mttkrp mode n.
	Mode int
	// R is the factor-matrix column count.
	R int
	// Out is the dense output matrix, zeroed at the start of each Execute,
	// so a plan serves one Execute at a time.
	Out *tensor.Matrix
	// owners is the plan over X's blocks sorted stably by their mode-n
	// block index; nil until ExecuteOMP first runs on more than one
	// worker.
	owners *MttkrpHiCOOPlan
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

// ExecuteOMP runs HiCOO-Mttkrp-OMP, "parfor b = 1..nb" over tensor
// blocks (Algorithm 2), owner-computes: on one worker it is ExecuteSeq;
// on more, every worker adds whole output block-rows of a copy of X
// whose blocks are sorted stably by their mode-n block index (built by
// the first such call), so the output is ExecuteSeq's bit for bit. A
// mode with one block-row runs on one worker. Options.Strategy Atomic is
// the paper's "omp atomic" ablation over X's own block order. The
// lock-avoiding scheduling of the HiCOO paper is deliberately skipped.
func (p *MttkrpHiCOOPlan) ExecuteOMP(mats []*tensor.Matrix, opt parallel.Options) (*tensor.Matrix, error) {
	nb := p.X.NumBlocks()
	if opt.Threads = parallel.ResolveThreads(nb, opt); opt.Threads == 1 || nb == 0 {
		return p.ExecuteSeq(mats)
	}
	if err := p.checkMats(mats); err != nil {
		return nil, err
	}
	p.Out.Zero()
	if opt.Strategy == parallel.Atomic {
		return planOut(p.Out, parallel.For(nb, opt, func(lo, hi, _ int) {
			p.executeBlocks(lo, hi, mats, p.Out.Data, true)
		}))
	}
	if p.owners == nil {
		p.owners = &MttkrpHiCOOPlan{X: blocksModeSorted(p.X, p.Mode), Mode: p.Mode, R: p.R}
	}
	s := p.owners
	return planOut(p.Out, ownerShares(opt, s.X.NNZ(), s.X.BInds[p.Mode], s.X.BPtr, func(lo, hi int) {
		s.executeBlocks(lo, hi, mats, p.Out.Data, false)
	}))
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
// plainly or atomically. Each tensor block is one block of the row body
// (DESIGN.md §22): its operands' bases are the block matrix bases Ab,
// Bb, Cb of line 3 and its row indices the 8-bit element indices. On
// amd64 with AVX2 the plain arm of orders 2–4 hands columns [0, r&^7)
// of whole block ranges, cut by cpu.Cut, to mttkrpBlocks, which walks
// the blocks itself; blockCols, the Go loop, computes the columns left,
// the atomic arm, orders 5 and up and, on other hosts, everything. When
// the body stops at block b, non-zero x, the Go loop finishes the
// columns from r&^7 on up to there and resumes every column at x, so a
// bad pointer or index panics where, and after the writes with which,
// the Go loop alone panics.
func (p *MttkrpHiCOOPlan) executeBlocks(lo, hi int, mats []*tensor.Matrix, out []tensor.Value, atomicUpd bool) {
	h := p.X
	var buf [mttkrpStackOperands]mttkrpOperand[uint8]
	ops := buf[:0]
	for mo, ind := range h.EInds {
		if mo != p.Mode {
			ops = append(ops, mttkrpOperand[uint8]{ind: ind, data: mats[mo].Data, bind: h.BInds[mo]})
		}
	}
	dst := mttkrpOperand[uint8]{ind: h.EInds[p.Mode], data: out, bind: h.BInds[p.Mode]}
	r := p.R
	if c := r &^ 7; c > 0 && cpu.AVX2 && !atomicUpd {
		if n, ok := blocksFit(h, &dst, ops, r, lo, hi); ok {
			for lo < hi {
				end := cpu.Cut(h.BPtr, lo, hi)
				b, x := mttkrpBlocks(&dst, ops, h.Vals, r, lo, end, h.BPtr, n, int(h.BlockBits))
				if c < r {
					blockCols(h, &dst, ops, r, c, lo, b, false)
				}
				if b == end {
					lo = end
					continue
				}
				blockBases(h, &dst, ops, b)
				if c < r {
					mttkrpCols(&dst, ops, h.Vals, r, c, int(h.BPtr[b]), x, false)
				}
				mttkrpCols(&dst, ops, h.Vals, r, 0, x, int(h.BPtr[b+1]), false)
				lo = b + 1
				break
			}
		}
	}
	blockCols(h, &dst, ops, r, 0, lo, hi, atomicUpd)
}

// blocksFit is mttkrpBlocks' precondition, O(order): one to
// mttkrpBodyOperands operands, BPtr covers blocks [lo, hi) and every
// operand's block index column their bases, the block bits are at most
// hicoo.MaxBlockBits and r ≤ 2^16. It returns n, how many non-zeros the
// value and element index columns all cover, which the body checks
// every block's BPtr entries against. A base is then below 2^40 (a
// 32-bit block index shifted by at most 8), so no row can wrap.
func blocksFit(h *hicoo.HiCOO, dst *mttkrpOperand[uint8], ops []mttkrpOperand[uint8], r, lo, hi int) (int, bool) {
	if uint(len(ops)-1) >= mttkrpBodyOperands || lo < 0 || hi >= len(h.BPtr) || r > 1<<16 ||
		h.BlockBits > hicoo.MaxBlockBits || len(dst.bind) < hi {
		return 0, false
	}
	n := min(len(h.Vals), len(dst.ind))
	for i := range ops {
		if len(ops[i].bind) < hi {
			return 0, false
		}
		n = min(n, len(ops[i].ind))
	}
	return n, true
}

// blockCols is executeBlocks' Go loop: columns [c0, r) of blocks
// [lo, hi), plainly or atomically.
func blockCols(h *hicoo.HiCOO, dst *mttkrpOperand[uint8], ops []mttkrpOperand[uint8], r, c0, lo, hi int, atomicUpd bool) {
	for b := lo; b < hi; b++ {
		blockBases(h, dst, ops, b)
		mttkrpCols(dst, ops, h.Vals, r, c0, int(h.BPtr[b]), int(h.BPtr[b+1]), atomicUpd)
	}
}

// blockBases sets every operand's base to block b's row, dst first.
func blockBases(h *hicoo.HiCOO, dst *mttkrpOperand[uint8], ops []mttkrpOperand[uint8], b int) {
	dst.base = int(dst.bind[b]) << h.BlockBits
	for i := range ops {
		ops[i].base = int(ops[i].bind[b]) << h.BlockBits
	}
}

// FlopCount returns the floating-point work of one execution (N·M·R).
func (p *MttkrpHiCOOPlan) FlopCount() int64 {
	return int64(p.X.Order()) * int64(p.X.NNZ()) * int64(p.R)
}
