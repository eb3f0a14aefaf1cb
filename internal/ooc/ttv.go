package ooc

import (
	"context"
	"encoding/binary"
	"fmt"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// ttvAcc is the streaming fiber accumulator: the order-(N-1) sparse
// output discovered fiber-by-fiber as tiles arrive. Fibers are keyed
// by their packed non-product coordinates; the dictionary and the
// output arrays are O(MF) in-core working state (the kernel's output),
// not charged against the tile budget.
type ttvAcc struct {
	dict   map[string]int32
	coords [][]tensor.Index // one slice per non-product mode
	vals   []tensor.Value
	key    []byte  // packed-coordinate scratch, 4 bytes per mode
	fids   []int32 // per-entry fiber ids of the current tile
}

// resolve maps one entry's non-product coordinates to its fiber id,
// appending a new output slot on first sight. The map lookup converts
// the scratch key without allocating; only an insert interns it.
func (a *ttvAcc) resolve(tl *tensor.Tile, otherModes []int, x int) int32 {
	for i, n := range otherModes {
		binary.LittleEndian.PutUint32(a.key[4*i:], tl.Inds[n][x])
	}
	if id, ok := a.dict[string(a.key)]; ok {
		return id
	}
	id := int32(len(a.vals))
	a.dict[string(a.key)] = id
	for i, n := range otherModes {
		a.coords[i] = append(a.coords[i], tl.Inds[n][x])
	}
	a.vals = append(a.vals, 0)
	return id
}

// Ttv streams the tensor-times-vector product over the tile reader:
// per-fiber reductions y_f = Σ x·v[k] accumulated across tiles. The
// tile stream is naturally sorted, so each fiber's entries arrive in
// ascending mode-index order — the same order the in-core kernel's
// fiber sort produces — which makes a one-worker stream bit-exact
// against the serial in-core Ttv.
func Ttv(ctx context.Context, tr *tensor.TileReader, v tensor.Vector, mode int, opt Options) (*tensor.COO, Stats, error) {
	if err := validateReader(tr, mode); err != nil {
		return nil, Stats{}, err
	}
	if len(v) != int(tr.Dims[mode]) {
		return nil, Stats{}, fmt.Errorf("ooc: Ttv vector length %d, want mode-%d size %d", len(v), mode, tr.Dims[mode])
	}
	otherModes := tensor.OtherModes(tr.Order(), mode)
	outDims := make([]tensor.Index, len(otherModes))
	for i, n := range otherModes {
		outDims[i] = tr.Dims[n]
	}
	acc := &ttvAcc{
		dict:   make(map[string]int32),
		coords: make([][]tensor.Index, len(otherModes)),
		key:    make([]byte, 4*len(otherModes)),
	}

	sched := opt.Sched
	sched.Ctx = ctx
	st, err := newLedger(opt.budget()).stream(ctx, tr, "Ttv/COO@ooc", func(_ int, tl *tensor.Tile) error {
		cnt := tl.NNZ()
		if cnt == 0 {
			return nil
		}
		// Fiber-id resolution mutates the dictionary and is serial; the
		// products then add into their fibers' slots in one loop.
		if cap(acc.fids) < cnt {
			acc.fids = make([]int32, cnt)
		}
		fids := acc.fids[:cnt]
		for x := 0; x < cnt; x++ {
			fids[x] = acc.resolve(tl, otherModes, x)
		}
		kInd, xv, vals := tl.Inds[mode], tl.Vals, acc.vals
		return forTile(cnt, sched, func(lo, hi int, shared bool) {
			for x := lo; x < hi; x++ {
				if shared {
					parallel.AtomicAddFloat32(&vals[fids[x]], xv[x]*v[kInd[x]])
				} else {
					vals[fids[x]] += xv[x] * v[kInd[x]]
				}
			}
		})
	})
	if err != nil {
		return nil, st, err
	}
	out := &tensor.COO{Dims: outDims, Inds: acc.coords, Vals: acc.vals}
	for i := range out.Inds {
		if out.Inds[i] == nil {
			out.Inds[i] = []tensor.Index{}
		}
	}
	if out.Vals == nil {
		out.Vals = []tensor.Value{}
	}
	return out, st, nil
}

// TtvFlops is the Table 1 work of one streamed execution: 2M.
func TtvFlops(tr *tensor.TileReader) int64 { return 2 * int64(tr.NNZ) }
