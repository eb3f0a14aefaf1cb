package core

import (
	"context"
	"slices"
	"sort"

	"repro/internal/hicoo"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// reduce.go is the parallel runtime of COO and HiCOO Mttkrp, whose
// non-zeros race on a shared output (DESIGN.md §7): owner-computes over
// a copy sorted stably by the output mode, whose workers add whole output
// rows in ExecuteSeq's order, and the privatization ablation.

// modeSorted returns k's non-zeros in the order of a stable sort by the
// output mode's index: each row's non-zeros keep their stored order.
func (k *cooMttkrp) modeSorted() *cooMttkrp {
	perm := parallel.SortColumns(len(k.vals), [][]uint32{k.inds[k.mode]})
	s := &cooMttkrp{inds: make([][]tensor.Index, len(k.inds)), vals: gathered(k.vals, perm), mode: k.mode, r: k.r}
	for m, ind := range k.inds {
		s.inds[m] = gathered(ind, perm)
	}
	return s
}

// blocksModeSorted returns h with its blocks in the order of a stable
// sort by their mode block index, BPtr rebuilt: each block-row's blocks
// keep their Morton order.
func blocksModeSorted(h *hicoo.HiCOO, mode int) *hicoo.HiCOO {
	perm := parallel.SortColumns(h.NumBlocks(), [][]uint32{h.BInds[mode]})
	s := &hicoo.HiCOO{Dims: h.Dims, BlockBits: h.BlockBits, BPtr: make([]int64, 1, len(h.BPtr)),
		BInds: make([][]tensor.Index, h.Order()), EInds: make([][]uint8, h.Order())}
	for m := range s.BInds {
		s.BInds[m] = gathered(h.BInds[m], perm)
	}
	for _, b := range perm {
		lo, hi := h.BPtr[b], h.BPtr[b+1]
		for m := range s.EInds {
			s.EInds[m] = append(s.EInds[m], h.EInds[m][lo:hi]...)
		}
		s.Vals = append(s.Vals, h.Vals[lo:hi]...)
		s.BPtr = append(s.BPtr, int64(len(s.Vals)))
	}
	return s
}

// gathered returns src reordered by perm.
func gathered[T any](src []T, perm []int32) []T {
	out := make([]T, len(perm))
	for w, x := range perm {
		out[w] = src[x]
	}
	return out
}

// ownerSharesPerWorker is how many shares ownerShares cuts per worker.
// More shares than workers let a dynamic schedule even out the shares
// whose bounds moved to a row start far from their target, and workers
// that run at different speeds: four per worker made the two-worker
// HiCOO cells of regS4d 6–12 % faster than one per worker.
const ownerSharesPerWorker = 4

// ownerShares splits units [0, len(keys)) — non-zeros, or HiCOO blocks
// whose BPtr is ptr — into ownerSharesPerWorker·opt.Threads consecutive
// shares and runs run on each under parallel.For. keys holds each unit's
// output row (block-row), in ascending order. Share w of t starts at the
// first unit of the row holding non-zero w·nnz/t, so the shares hold
// about nnz/t non-zeros each and every output row has one writer.
func ownerShares(opt parallel.Options, nnz int, keys []tensor.Index, ptr []int64, run func(lo, hi int)) error {
	t := ownerSharesPerWorker * opt.Threads
	bound := func(w int) int {
		if w == 0 {
			return 0
		}
		if w == t {
			return len(keys)
		}
		u := w * nnz / t
		if ptr != nil {
			u = sort.Search(len(keys), func(b int) bool { return ptr[b+1] > int64(u) })
		}
		first, _ := slices.BinarySearch(keys[:u], keys[u])
		return first
	}
	return parallel.For(t, opt, func(lo, hi, _ int) {
		for w := lo; w < hi; w++ {
			run(bound(w), bound(w+1))
		}
	})
}

// privatizedReduce runs body over [0, n) with each of opt.Threads
// workers accumulating into a pooled private copy of out, then merges
// the copies into out in parallel. The privates arrive zeroed and go
// back to the shared workspace afterwards, so steady-state calls
// allocate no scratch. A cancelled loop (Options.Ctx) skips the merge —
// the privates hold partial sums — and surfaces ErrDeadline.
func privatizedReduce(n int, opt parallel.Options, out []tensor.Value, body func(lo, hi int, priv []tensor.Value)) error {
	ws := parallel.SharedWorkspace()
	set := ws.Set(opt.Threads, len(out))
	err := parallel.For(n, opt, func(lo, hi, w int) {
		body(lo, hi, set.Bufs[w])
	})
	if err == nil {
		err = mergePrivates(out, set.Bufs, opt.Threads, opt.Ctx)
	}
	ws.PutSet(set)
	return err
}

// mergePrivates overwrites out with the element-wise sum of the private
// copies, parallelized over the output.
func mergePrivates(out []tensor.Value, privs [][]float32, threads int, ctx context.Context) error {
	return parallel.For(len(out), parallel.Options{Schedule: parallel.Static, Threads: threads, Ctx: ctx}, func(lo, hi, _ int) {
		copy(out[lo:hi], privs[0][lo:hi])
		for _, p := range privs[1:] {
			src := p[lo:hi]
			dst := out[lo:hi]
			for i := range dst {
				dst[i] += src[i]
			}
		}
	})
}
