package ooc

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/tensor"
)

// Mttkrp streams the matricized-tensor-times-Khatri-Rao-product over
// the tile reader: each tile's non-zeros accumulate into the dense
// output matrix Ã ∈ R^{Dims[mode] × R} through the in-core COO kernel's
// own range body (core.MttkrpCOORange over the tile's raw columns — so
// a one-worker stream reproduces the serial in-core bits), but with
// only a budgeted window of the tensor resident. mats follows the
// in-core contract: one factor matrix per mode, mats[mode]
// participating only via its shape.
func Mttkrp(ctx context.Context, tr *tensor.TileReader, mats []*tensor.Matrix, mode int, opt Options) (*tensor.Matrix, Stats, error) {
	if err := validateReader(tr, mode); err != nil {
		return nil, Stats{}, err
	}
	order := tr.Order()
	if len(mats) != order {
		return nil, Stats{}, fmt.Errorf("ooc: Mttkrp got %d factor matrices, want %d", len(mats), order)
	}
	r := 0
	for m, u := range mats {
		if m == mode {
			continue // output slot; may even be nil
		}
		if u == nil {
			return nil, Stats{}, fmt.Errorf("ooc: Mttkrp factor matrix %d is nil", m)
		}
		if u.Rows != int(tr.Dims[m]) {
			return nil, Stats{}, fmt.Errorf("ooc: Mttkrp factor %d has %d rows, want %d", m, u.Rows, tr.Dims[m])
		}
		if r == 0 {
			r = u.Cols
		} else if u.Cols != r {
			return nil, Stats{}, fmt.Errorf("ooc: Mttkrp factor %d has %d cols, want %d", m, u.Cols, r)
		}
	}
	if r <= 0 {
		return nil, Stats{}, fmt.Errorf("ooc: Mttkrp needs R >= 1")
	}
	out := tensor.NewMatrix(int(tr.Dims[mode]), r)

	sched := opt.Sched
	sched.Ctx = ctx
	st, err := newLedger(opt.budget()).stream(ctx, tr, "Mttkrp/COO@ooc", func(_ int, tl *tensor.Tile) error {
		cnt := tl.NNZ()
		if cnt == 0 {
			return nil
		}
		return forTile(cnt, sched, func(lo, hi int, shared bool) {
			core.MttkrpCOORange(tl.Inds, tl.Vals, mode, r, mats, out.Data, lo, hi, shared)
		})
	})
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// MttkrpFlops is the Table 1 work of one streamed execution: N·M·R.
func MttkrpFlops(tr *tensor.TileReader, r int) int64 {
	return int64(tr.Order()) * int64(tr.NNZ) * int64(r)
}
