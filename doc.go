// Package pasta is a Go reproduction of "A Parallel Sparse Tensor
// Benchmark Suite on CPUs and GPUs" (Li et al., 2020): reference
// implementations of five sparse tensor kernels — element-wise (Tew),
// tensor-scalar (Ts), tensor-times-vector (Ttv), tensor-times-matrix
// (Ttm), and the matricized tensor times Khatri-Rao product (Mttkrp) —
// in COO and HiCOO formats, on multicore CPUs (an OpenMP-style runtime)
// and on a simulated CUDA device, together with the paper's synthetic
// tensor generators, datasets, Roofline models, and a harness that
// regenerates every table and figure of the evaluation.
//
// This root package is the public API: it re-exports the names its
// runnable Examples show, and the implementation lives under internal/.
// Typical use:
//
//	x, _ := pasta.Kronecker([]pasta.Index{1 << 16, 1 << 16, 1 << 16}, 1_000_000, nil, rng)
//	v := pasta.NewVector(1 << 16)
//	plan, _ := pasta.PrepareTtv(x, 2)           // preprocessing (sort, fptr, output alloc)
//	y, _ := plan.ExecuteOMP(v, pasta.Dynamic()) // the timed kernel
//
// See README.md for the architecture overview, DESIGN.md for the system
// inventory and experiment index, and EXPERIMENTS.md for paper-versus-
// measured results.
package pasta
