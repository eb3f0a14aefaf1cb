package core

import (
	"context"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// reduce.go is the shared reduction runtime of the OMP kernels with a
// racing output, COO and HiCOO Mttkrp: each Execute resolves its worker
// count once, asks the strategy selector whether to run atomic or
// privatized, and draws privatization scratch from the pooled workspace
// instead of allocating per call. Ttv and Ttm are owner-computes and
// need none of it.

// planReduction resolves the worker count for a loop of loopN iterations
// and the update strategy for the given reduction shape. The returned
// thread count MUST be passed back to every parallel.For of the
// invocation via Options.Threads: it is the single NumThreads read of the
// call, so per-worker state stays consistent under SetNumThreads churn.
func planReduction(opt parallel.Options, loopN, outElems, updates int) (parallel.Strategy, int) {
	threads := parallel.ResolveThreads(loopN, opt)
	st := parallel.Choose(opt.Strategy, parallel.ReductionShape{
		OutElems: outElems,
		Updates:  updates,
		Threads:  threads,
	})
	return st, threads
}

// privatizedReduce runs body over [0, n) with each worker accumulating
// into a pooled private copy of out, then merges the copies into out in
// parallel. The privates arrive zeroed and go back to the shared
// workspace afterwards, so steady-state calls allocate no scratch. A
// cancelled loop (Options.Ctx) skips the merge — the privates hold
// partial sums — and surfaces ErrDeadline to the kernel.
func privatizedReduce(n, threads int, opt parallel.Options, out []tensor.Value, body func(lo, hi int, priv []tensor.Value)) error {
	ws := parallel.SharedWorkspace()
	set := ws.Set(threads, len(out))
	opt.Threads = threads
	err := parallel.For(n, opt, func(lo, hi, w int) {
		body(lo, hi, set.Bufs[w])
	})
	if err == nil {
		err = mergePrivates(out, set.Bufs, threads, opt.Ctx)
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
