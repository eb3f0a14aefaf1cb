package kernelreg

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/ooc"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// The OOC backend's variants (grid rule 3): Ttv and Mttkrp running over
// a PSTB v3 tile stream via internal/ooc instead of the in-core tensor.
// Prepare serializes the workbench tensor into an in-memory tiled image
// sliced into several tiles and streams it under a budget a small
// multiple of the largest tile, so pastaverify and the chaos matrix
// exercise the real pipeline — leasing, prefetch, eviction — even on
// lint-sized tensors. The Run rung streams on the workbench's schedule;
// the Serial rung streams on one worker, whose output is bit-exact
// against the serial in-core kernels.

// streamTiles is the minimum tile count the workbench image is cut into.
const streamTiles = 8

// streamingPrep returns the rule-3 Prepare hook for kernel k.
func streamingPrep(k roofline.Kernel) func(wb *Workbench, mode int, b Backend) (*Instance, error) {
	return func(wb *Workbench, mode int, b Backend) (*Instance, error) {
		if b != OOC {
			return nil, badBackend(fmt.Sprintf("%s/COO streaming", k), b)
		}
		switch k {
		case roofline.Ttv:
			return prepTtvOOC(wb, mode)
		case roofline.Mttkrp:
			return prepMttkrpOOC(wb, mode)
		}
		return nil, fmt.Errorf("kernelreg: kernel %s has no streaming body", k)
	}
}

// TileReader returns the v3 tile view of X, serialized once per
// workbench into an in-memory image of at least streamTiles tiles. The
// reader is safe for concurrent streams: ReadAt is stateless and the
// directory is read-only; each stream owns its decode buffers.
func (wb *Workbench) TileReader() (*tensor.TileReader, error) {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	if wb.tiled != nil {
		return wb.tiled, nil
	}
	tileNNZ := (wb.X.NNZ() + streamTiles - 1) / streamTiles
	if tileNNZ < 1 {
		tileNNZ = 1
	}
	var buf bytes.Buffer
	if err := tensor.WriteBinaryTiled(&buf, wb.X, tileNNZ); err != nil {
		return nil, err
	}
	raw := buf.Bytes()
	tr, err := tensor.NewTileReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		return nil, err
	}
	wb.tiled = tr
	return tr, nil
}

// streamBudget is the tile-residency budget the workbench variants run
// under: five times the largest tile — enough for the double-buffered
// pipeline (two leases of at most 2× a tile each), small enough that
// the stream actually cycles leases on multi-tile images.
func streamBudget(tr *tensor.TileReader) int64 {
	b := 5 * tr.MaxTileBytes()
	if b < 1<<16 {
		b = 1 << 16
	}
	return b
}

// streamOpt configures one rung's stream: the workbench's schedule for
// Run; one worker for Serial, whose file-order accumulation is bit-exact
// against the serial in-core kernels.
func streamOpt(ctx context.Context, wb *Workbench, budget int64, serial bool) ooc.Options {
	opt := ooc.Options{MemBudget: budget, Sched: wb.Opt(ctx)}
	if serial {
		opt.Sched.Threads = 1
	}
	return opt
}

func prepMttkrpOOC(wb *Workbench, mode int) (*Instance, error) {
	tr, err := wb.TileReader()
	if err != nil {
		return nil, err
	}
	mats, budget := wb.Mats(), streamBudget(tr)
	inst, keep := tracked(ooc.MttkrpFlops(tr, wb.R()), tensor.NewMatrix(int(tr.Dims[mode]), wb.R()))
	run := func(serial bool) func(context.Context) error {
		return func(ctx context.Context) error {
			out, _, err := ooc.Mttkrp(ctx, tr, mats, mode, streamOpt(ctx, wb, budget, serial))
			return keep(out, err)
		}
	}
	inst.Run, inst.Serial = run(false), run(true)
	return inst, nil
}

func prepTtvOOC(wb *Workbench, mode int) (*Instance, error) {
	tr, err := wb.TileReader()
	if err != nil {
		return nil, err
	}
	v, budget := wb.Vec(mode), streamBudget(tr)
	outDims := make([]tensor.Index, 0, tr.Order()-1)
	for _, n := range tensor.OtherModes(tr.Order(), mode) {
		outDims = append(outDims, tr.Dims[n])
	}
	inst, keep := tracked(ooc.TtvFlops(tr), tensor.NewCOO(outDims, 0))
	run := func(serial bool) func(context.Context) error {
		return func(ctx context.Context) error {
			out, _, err := ooc.Ttv(ctx, tr, v, mode, streamOpt(ctx, wb, budget, serial))
			return keep(out, err)
		}
	}
	inst.Run, inst.Serial = run(false), run(true)
	return inst, nil
}
