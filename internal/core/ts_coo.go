package core

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/gpusim"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TsPlan is the prepared state of a COO tensor-scalar kernel (§2.2): the
// output keeps the input's non-zero pattern, so preprocessing only
// allocates the value array and aliases the index arrays. The suite
// implements Tsa (add) and Tsm (multiply), which the paper notes are
// sufficient to support all four operations.
type TsPlan struct {
	// X is the input tensor.
	X *tensor.COO
	// S is the scalar operand.
	S tensor.Value
	// Op is Add or Mul (Sub and Div reduce to them).
	Op Op
	// Out is the preallocated output, indices aliased to X.
	Out *tensor.COO
}

// PrepareTs validates the operation and preallocates the output. Sub and
// Div are normalized to Add/Mul with a transformed scalar, mirroring the
// paper's "Tsa and Tsm are sufficient to support them all".
func PrepareTs(x *tensor.COO, s tensor.Value, op Op) (*TsPlan, error) {
	s, op, err := normalizeTs(s, op)
	if err != nil {
		return nil, err
	}
	return &TsPlan{
		X:  x,
		S:  s,
		Op: op,
		Out: &tensor.COO{
			Dims: append([]tensor.Index(nil), x.Dims...),
			Inds: x.Inds,
			Vals: make([]tensor.Value, x.NNZ()),
		},
	}, nil
}

// normalizeTs reduces the four scalar operations to Tsa/Tsm: Sub becomes
// Add of the negated scalar, Div becomes Mul by the reciprocal.
func normalizeTs(s tensor.Value, op Op) (tensor.Value, Op, error) {
	switch op {
	case Add, Mul:
		return s, op, nil
	case Sub:
		return -s, Add, nil
	case Div:
		if s == 0 {
			return 0, op, fmt.Errorf("core: tensor-scalar division by zero")
		}
		return 1 / s, Mul, nil
	}
	return 0, op, fmt.Errorf("core: unknown op %v", op)
}

// ExecuteSeq runs the value computation sequentially.
func (p *TsPlan) ExecuteSeq() *tensor.COO {
	tsValues(p.X.Vals, p.Out.Vals, p.S, p.Op, 0, p.X.NNZ())
	return p.Out
}

// ExecuteOMP runs the value computation with the OpenMP-style runtime.
func (p *TsPlan) ExecuteOMP(opt parallel.Options) *tensor.COO {
	parallel.For(p.X.NNZ(), opt, func(lo, hi, _ int) {
		tsValues(p.X.Vals, p.Out.Vals, p.S, p.Op, lo, hi)
	})
	return p.Out
}

// ExecuteGPU runs the COO-Ts-GPU kernel: one thread per non-zero in a 1-D
// grid of 256-thread blocks (§3.2.2).
func (p *TsPlan) ExecuteGPU(dev *gpusim.Device) *tensor.COO {
	tsGPU(dev, p.X.Vals, p.Out.Vals, p.S, p.Op)
	return p.Out
}

// tsValues is the Ts value computation over non-zeros [lo, hi), z = x op s
// with op already normalized to Add or Mul: the one loop behind the COO
// and HiCOO plans. With AVX2 one assembly call computes the first
// (hi−lo)&^31 values and the loops below the others.
func tsValues(xv, zv []tensor.Value, s tensor.Value, op Op, lo, hi int) {
	if n := (hi - lo) &^ 31; cpu.AVX2 && n > 0 {
		tsAVX2(zv[lo:hi], xv[lo:hi], s, op)
		lo += n
	}
	if op == Add {
		for i := lo; i < hi; i++ {
			zv[i] = xv[i] + s
		}
		return
	}
	for i := lo; i < hi; i++ {
		zv[i] = xv[i] * s
	}
}

// tsGPU is the Ts GPU kernel, shared by both formats.
func tsGPU(dev *gpusim.Device, xv, zv []tensor.Value, s tensor.Value, op Op) {
	m := len(zv)
	if m == 0 {
		return
	}
	grid, block := perNNZLaunch(m)
	if op == Add {
		dev.Launch(grid, block, func(ctx gpusim.Ctx) {
			if i := ctx.GlobalX(); i < m {
				zv[i] = xv[i] + s
			}
		})
		return
	}
	dev.Launch(grid, block, func(ctx gpusim.Ctx) {
		if i := ctx.GlobalX(); i < m {
			zv[i] = xv[i] * s
		}
	})
}

// FlopCount returns the floating-point work of one execution (Table 1:
// M flops for Ts).
func (p *TsPlan) FlopCount() int64 { return int64(p.X.NNZ()) }

// Ts is the convenience one-shot form: prepare and execute sequentially.
func Ts(x *tensor.COO, s tensor.Value, op Op) (*tensor.COO, error) {
	p, err := PrepareTs(x, s, op)
	if err != nil {
		return nil, err
	}
	return p.ExecuteSeq(), nil
}
