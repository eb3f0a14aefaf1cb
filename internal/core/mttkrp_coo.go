package core

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/gpusim"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// MttkrpPlan is the prepared state of a COO Mttkrp kernel in a fixed mode
// (§2.5, §3.2). Unlike the other kernels Mttkrp needs no preprocessing
// (the paper times it without one); the plan validates shapes and owns
// the dense output matrix Ã ∈ R^{I_n × R}, and the parallel path's
// mode-sorted copy once it has run.
type MttkrpPlan struct {
	// X is the input tensor in any non-zero order.
	X *tensor.COO
	// Mode is the Mttkrp mode n.
	Mode int
	// R is the factor-matrix column count.
	R int
	// Out is the dense output matrix, zeroed at the start of each Execute,
	// so a plan serves one Execute at a time.
	Out *tensor.Matrix

	k cooMttkrp // the value computation over (X.Inds, X.Vals)
	// owners is k over the non-zeros sorted stably by the mode-n index;
	// nil until ExecuteOMP first runs on more than one worker.
	owners *cooMttkrp
}

// cooMttkrp is the COO-Mttkrp value computation over raw per-mode index
// columns and a value column — a COO tensor's, or one out-of-core tile's.
// Like fiberKernel it is a view built once (in PrepareMttkrp) and kept in
// the plan, so the range body and the GPU launch exist once and every
// executor — sequential, OMP owners and ablations, single- and
// multi-GPU, the tile stream — runs them on a non-zero range.
type cooMttkrp struct {
	inds [][]tensor.Index
	vals []tensor.Value
	mode int
	r    int
}

// PrepareMttkrp validates the mode and allocates the output matrix.
func PrepareMttkrp(x *tensor.COO, mode, r int) (*MttkrpPlan, error) {
	if mode < 0 || mode >= x.Order() {
		return nil, fmt.Errorf("core: Mttkrp mode %d out of range for order-%d tensor", mode, x.Order())
	}
	if x.Order() < 2 {
		return nil, fmt.Errorf("core: Mttkrp needs an order >= 2 tensor")
	}
	if r <= 0 {
		return nil, fmt.Errorf("core: Mttkrp needs R >= 1, got %d", r)
	}
	return &MttkrpPlan{X: x, Mode: mode, R: r, Out: tensor.NewMatrix(int(x.Dims[mode]), r),
		k: cooMttkrp{inds: x.Inds, vals: x.Vals, mode: mode, r: r}}, nil
}

// checkMats validates the factor matrices: one per mode, mats[m] of shape
// Dims[m] × R. mats[Mode] participates only via its shape (its values are
// not read), matching the U~(n) update of Equation (5).
func (p *MttkrpPlan) checkMats(mats []*tensor.Matrix) error {
	if len(mats) != p.X.Order() {
		return fmt.Errorf("core: Mttkrp got %d factor matrices, want %d", len(mats), p.X.Order())
	}
	for m, u := range mats {
		if m == p.Mode {
			continue // output slot; may even be nil
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

// ExecuteSeq runs the kernel sequentially: each row of Ã accumulates the
// non-zero value times the Hadamard product of the other modes' factor
// rows.
func (p *MttkrpPlan) ExecuteSeq(mats []*tensor.Matrix) (*tensor.Matrix, error) {
	if err := p.checkMats(mats); err != nil {
		return nil, err
	}
	p.Out.Zero()
	p.k.accumulate(0, p.X.NNZ(), mats, p.Out.Data, false)
	return p.Out, nil
}

// ExecuteOMP runs COO-Mttkrp-OMP, owner-computes: on one worker it is
// ExecuteSeq; on more, every worker adds whole output rows of a copy of
// the non-zeros sorted stably by the mode-n index (built by the first
// such call), so the output is ExecuteSeq's bit for bit. Options.Strategy
// Atomic and Privatized are the paper's Observation 5 ablations over the
// stored order: "omp atomic" updates, or pooled per-worker private
// copies of Ã merged after the loop ([42]).
func (p *MttkrpPlan) ExecuteOMP(mats []*tensor.Matrix, opt parallel.Options) (*tensor.Matrix, error) {
	m := p.X.NNZ()
	if opt.Threads = parallel.ResolveThreads(m, opt); opt.Threads == 1 || m == 0 {
		return p.ExecuteSeq(mats)
	}
	if err := p.checkMats(mats); err != nil {
		return nil, err
	}
	switch opt.Strategy {
	case parallel.Atomic:
		p.Out.Zero()
		return planOut(p.Out, parallel.For(m, opt, func(lo, hi, _ int) {
			p.k.accumulate(lo, hi, mats, p.Out.Data, true)
		}))
	case parallel.Privatized:
		return planOut(p.Out, privatizedReduce(m, opt, p.Out.Data, func(lo, hi int, priv []tensor.Value) {
			p.k.accumulate(lo, hi, mats, priv, false)
		}))
	}
	if p.owners == nil {
		p.owners = p.k.modeSorted()
	}
	s := p.owners
	p.Out.Zero()
	return planOut(p.Out, ownerShares(opt, m, s.inds[s.mode], nil, func(lo, hi int) {
		s.accumulate(lo, hi, mats, p.Out.Data, false)
	}))
}

// ExecuteGPU runs COO-Mttkrp-GPU following ParTI: a 1-D grid of 2-D thread
// blocks (x = matrix columns for coalescing, y = non-zeros) with atomicAdd
// on the output matrix (§3.2.2).
func (p *MttkrpPlan) ExecuteGPU(dev *gpusim.Device, mats []*tensor.Matrix) (*tensor.Matrix, error) {
	if err := p.checkMats(mats); err != nil {
		return nil, err
	}
	p.Out.Zero()
	if err := p.k.launchGPU(dev, mats, p.Out.Data, 0, p.X.NNZ()); err != nil {
		return nil, err
	}
	return p.Out, nil
}

// launchGPU launches the GPU kernel over non-zeros [lo, hi), accumulating
// atomically into out. The whole tensor on one device is [0, M) into
// Out.Data; a multi-GPU shard is a sub-range into a device-private copy.
func (k *cooMttkrp) launchGPU(dev *gpusim.Device, mats []*tensor.Matrix, out []tensor.Value, lo, hi int) error {
	if hi == lo {
		return nil
	}
	r := k.r
	ny := max(gpusim.DefaultBlockThreads/r, 1)
	block := gpusim.Dim2(r, ny)
	grid := gpusim.Grid1DFor(hi-lo, ny)
	nInd := k.inds[k.mode]
	xv := k.vals
	order := len(k.inds)
	_, err := dev.TryLaunch(grid, block, func(ctx gpusim.Ctx) {
		x := lo + ctx.BlockIdx.X*ctx.BlockDim.Y + ctx.ThreadIdx.Y
		if x >= hi {
			return
		}
		col := ctx.ThreadIdx.X
		v := xv[x]
		for mo := 0; mo < order; mo++ {
			if mo == k.mode {
				continue
			}
			v *= mats[mo].Data[int(k.inds[mo][x])*r+col]
		}
		gpusim.AtomicAdd(&out[int(nInd[x])*r+col], v)
	})
	return err
}

// MttkrpCOORange runs the COO-Mttkrp value computation over non-zeros
// [lo, hi) of raw per-mode index columns and a value column: every row of
// out (a Dims[mode]×r row-major matrix) accumulates the non-zero value
// times the Hadamard product of the other modes' factor rows, plainly
// (single writer) or atomically (shared writers). It is the range entry
// point of executors that hold columns rather than a plan — the
// out-of-core stream calls it per tile — and runs the very body
// MttkrpPlan does, which is why a deterministic stream reproduces the
// serial in-core bits.
func MttkrpCOORange(inds [][]tensor.Index, vals []tensor.Value, mode, r int, mats []*tensor.Matrix, out []tensor.Value, lo, hi int, atomicUpd bool) {
	k := cooMttkrp{inds: inds, vals: vals, mode: mode, r: r}
	k.accumulate(lo, hi, mats, out, atomicUpd)
}

// accumulate adds non-zeros [lo, hi) into out, plainly or atomically: the
// columns are one block with base row 0 and 32-bit row indices.
func (k *cooMttkrp) accumulate(lo, hi int, mats []*tensor.Matrix, out []tensor.Value, atomicUpd bool) {
	var buf [mttkrpStackOperands]mttkrpOperand[tensor.Index]
	ops := buf[:0]
	for mo, ind := range k.inds {
		if mo != k.mode {
			ops = append(ops, mttkrpOperand[tensor.Index]{ind: ind, data: mats[mo].Data})
		}
	}
	mttkrpRows(&mttkrpOperand[tensor.Index]{ind: k.inds[k.mode], data: out}, ops, k.vals, k.r, lo, hi, atomicUpd)
}

// mttkrpOperand is one mode of a Mttkrp block: a row-major R-column
// matrix (a factor, or the output), the block's first row in it, and the
// column giving every non-zero's row within the block — 32-bit COO
// coordinates under base 0, or HiCOO's 8-bit element indices. For HiCOO,
// bind is the mode's block index column: block b's base is
// bind[b] << BlockBits.
type mttkrpOperand[E uint8 | tensor.Index] struct {
	ind  []E
	data []tensor.Value
	base int
	bind []tensor.Index
}

// mttkrpStackOperands is how many input modes an executor gathers on its
// stack; a tensor of higher order spills the list to the heap (append).
const mttkrpStackOperands = 8

// mttkrpBodyOperands is the most input modes the assembly body holds in
// registers: orders 2–4. Higher orders run the Go loop.
const mttkrpBodyOperands = 3

// mttkrpRows is the Mttkrp value computation over one block of 32-bit
// row indices (DESIGN.md §22): for every non-zero x of [lo, hi) it adds
// vals[x] times the Hadamard product of the operands' rows to the row of
// dst. On amd64 with AVX2 the plain arm of orders 2–4 runs one assembly
// body over columns [0, r&^7) (mttkrp_amd64.s), one call per
// cpu.CallNNZ non-zeros; the Go loop computes the columns left, the
// atomic arm, orders 5 and up and, on other hosts, everything. The body
// stops before the first non-zero with a row out of range, and the Go
// loop resumes there, so such an index panics where the Go loop alone
// panics, after the same writes.
// Operands multiply in slice order (ascending mode) and non-zeros are
// visited in order, so each output element sees the products and
// additions of the textbook loop, bit for bit, on either path. HiCOO's
// blocks have an entry of their own, executeBlocks.
func mttkrpRows(dst *mttkrpOperand[tensor.Index], ops []mttkrpOperand[tensor.Index], vals []tensor.Value, r, lo, hi int, atomicUpd bool) {
	if c := r &^ 7; c > 0 && cpu.AVX2 && !atomicUpd && mttkrpFits(dst, ops, vals, r, lo, hi) {
		for lo < hi {
			end := min(hi, lo+cpu.CallNNZ)
			stop := mttkrpRows32(dst, ops, vals, r, lo, end)
			if c < r {
				mttkrpCols(dst, ops, vals, r, c, lo, stop, false)
			}
			lo = stop
			if stop < end {
				break
			}
		}
	}
	mttkrpCols(dst, ops, vals, r, 0, lo, hi, atomicUpd)
}

// mttkrpFits is mttkrpRows32's precondition, O(order): one to
// mttkrpBodyOperands operands, the index and value columns cover
// [lo, hi), and every base is 0, as COO's always are, so the body reads
// none. A row that passes the body's row check lies inside its data.
func mttkrpFits(dst *mttkrpOperand[tensor.Index], ops []mttkrpOperand[tensor.Index], vals []tensor.Value, r, lo, hi int) bool {
	if uint(len(ops)-1) >= mttkrpBodyOperands || uint(lo) > uint(hi) || uint(hi) > uint(len(vals)) || r > 1<<16 ||
		len(dst.ind) < hi || dst.base != 0 {
		return false
	}
	for i := range ops {
		if op := &ops[i]; len(op.ind) < hi || op.base != 0 {
			return false
		}
	}
	return true
}

// mttkrpCols is the Go loop of mttkrpRows and executeBlocks over columns
// [c0, r) of non-zeros [lo, hi) of one block: eight output columns at a
// time live in registers across the operands, every row re-sliced to a
// [8]Value so the multiplies carry no bounds checks; a scalar loop takes
// the columns left. Plain and atomic differ only in how the finished
// products are committed.
func mttkrpCols[E uint8 | tensor.Index](dst *mttkrpOperand[E], ops []mttkrpOperand[E], vals []tensor.Value, r, c0, lo, hi int, atomicUpd bool) {
	for x := lo; x < hi; x++ {
		v := vals[x]
		o := dst.data[(dst.base+int(dst.ind[x]))*r:][:r]
		c := c0
		for ; c+8 <= r; c += 8 {
			p0, p1, p2, p3, p4, p5, p6, p7 := v, v, v, v, v, v, v, v
			for i := range ops {
				op := &ops[i]
				a := (*[8]tensor.Value)(op.data[(op.base+int(op.ind[x]))*r+c:])
				p0 *= a[0]
				p1 *= a[1]
				p2 *= a[2]
				p3 *= a[3]
				p4 *= a[4]
				p5 *= a[5]
				p6 *= a[6]
				p7 *= a[7]
			}
			d := (*[8]tensor.Value)(o[c:])
			if atomicUpd {
				parallel.AtomicAddFloat32(&d[0], p0)
				parallel.AtomicAddFloat32(&d[1], p1)
				parallel.AtomicAddFloat32(&d[2], p2)
				parallel.AtomicAddFloat32(&d[3], p3)
				parallel.AtomicAddFloat32(&d[4], p4)
				parallel.AtomicAddFloat32(&d[5], p5)
				parallel.AtomicAddFloat32(&d[6], p6)
				parallel.AtomicAddFloat32(&d[7], p7)
				continue
			}
			d[0] += p0
			d[1] += p1
			d[2] += p2
			d[3] += p3
			d[4] += p4
			d[5] += p5
			d[6] += p6
			d[7] += p7
		}
		for ; c < r; c++ {
			p := v
			for i := range ops {
				op := &ops[i]
				p *= op.data[(op.base+int(op.ind[x]))*r+c]
			}
			if atomicUpd {
				parallel.AtomicAddFloat32(&o[c], p)
			} else {
				o[c] += p
			}
		}
	}
}

// FlopCount returns the floating-point work of one execution: N·M·R flops
// for an order-N tensor (3MR for third order, matching Table 1).
func (p *MttkrpPlan) FlopCount() int64 {
	return int64(p.X.Order()) * int64(p.X.NNZ()) * int64(p.R)
}

// Mttkrp is the convenience one-shot form: prepare and execute
// sequentially.
func Mttkrp(x *tensor.COO, mats []*tensor.Matrix, mode int) (*tensor.Matrix, error) {
	r := 0
	for m, u := range mats {
		if m != mode && u != nil {
			r = u.Cols
			break
		}
	}
	p, err := PrepareMttkrp(x, mode, r)
	if err != nil {
		return nil, err
	}
	return p.ExecuteSeq(mats)
}
