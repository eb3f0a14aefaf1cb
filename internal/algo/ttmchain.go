package algo

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/tensor"
)

// DenseTensor is a small dense tensor — the core produced by a full
// TTM-chain (every mode contracted to R_n columns).
type DenseTensor struct {
	// Dims holds the core's mode sizes.
	Dims []int
	// Data is the row-major value array.
	Data []tensor.Value
}

// TTMChain computes Y = X ×₁ U₁ ×₂ U₂ … ×_N U_N, the Tucker-core style
// TTM-chain the paper's §7 lists as the next operation for the suite.
// Each U_n is an I_n × R_n matrix in the suite's transposed convention.
// The first step runs the sparse Ttm kernel; every later step stays in
// semi-sparse form via the TtmSemi kernel, so the intermediates never
// expand back to COO. Intermediates still grow by Π R_n: intended for
// low-rank cores.
func TTMChain(x *tensor.COO, mats []*tensor.Matrix) (*DenseTensor, error) {
	if len(mats) != x.Order() {
		return nil, fmt.Errorf("algo: TTMChain got %d matrices for order-%d tensor", len(mats), x.Order())
	}
	for n, u := range mats {
		if u == nil {
			return nil, fmt.Errorf("algo: TTMChain matrix %d is nil", n)
		}
		if u.Rows != int(x.Dims[n]) {
			return nil, fmt.Errorf("algo: TTMChain matrix %d has %d rows, want %d", n, u.Rows, x.Dims[n])
		}
	}
	cur, err := core.Ttm(x, mats[0], 0)
	if err != nil {
		return nil, err
	}
	for n := 1; n < x.Order(); n++ {
		cur, err = core.TtmSemi(cur, mats[n], n)
		if err != nil {
			return nil, err
		}
	}
	// cur is now fully dense (no sparse modes left) with a single fiber
	// laid out row-major over the modes in ascending order.
	dims := make([]int, cur.Order())
	numEl := 1
	for n, d := range cur.Dims {
		dims[n] = int(d)
		numEl *= int(d)
	}
	out := &DenseTensor{Dims: dims, Data: make([]tensor.Value, numEl)}
	if cur.NumFibers() == 1 {
		copy(out.Data, cur.FiberVals(0))
		return out, nil
	}
	// Defensive fallback (e.g. an empty tensor produced zero fibers).
	if cur.NumFibers() == 0 {
		return out, nil
	}
	return nil, fmt.Errorf("algo: TTMChain internal: %d fibers after full contraction", cur.NumFibers())
}
