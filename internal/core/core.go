// Package core implements the five sparse tensor kernels of the benchmark
// suite — Tew (element-wise), Ts (tensor-scalar), Ttv (tensor-times-
// vector), Ttm (tensor-times-matrix), and Mttkrp (matricized tensor times
// Khatri-Rao product) — in COO and HiCOO formats, each with a sequential
// reference, an OpenMP-style multicore implementation, and a GPU
// implementation running on the gpusim substrate.
//
// Following the paper (§3), every kernel except Mttkrp is split into a
// preprocessing stage (sorting, fiber detection, output allocation and
// index setup — captured in a *Plan type) and a value-computation stage
// (the Execute* methods), which is the part the benchmarks time. Plans
// are reusable: repeated Execute calls recompute the output values using
// the same preallocated output.
//
// Formats differ in preprocessing only (§3.4): each kernel's value
// computation exists once and the COO and HiCOO plans both delegate to
// it — fiber.go for Ttv and Ttm (a fiber reduction over an index column
// and a value column, whichever format supplied them: FiberView in
// view.go is the contract, through which the fiber trees of
// internal/levels and internal/csf prepare the same plans; on amd64 with
// AVX2 Ttm's owner arm is one assembly body, ttm_amd64.s), tewValues
// and tsValues for the element-wise kernels, mttkrpCols for Mttkrp (a
// rank-blocked row accumulation over one block of non-zeros: COO columns,
// exported as MttkrpCOORange, are one block with base 0 behind
// mttkrpRows, a HiCOO tensor is its blocks with 8-bit element indices
// behind executeBlocks; on amd64 with AVX2 both plain arms are one
// assembly body, mttkrp_amd64.s, with an entry each).
// The same bodies take a range, so the multi-GPU shards (multigpu.go),
// the out-of-core tile stream (internal/ooc) and the distributed ranks
// (internal/dist) run them too. The sCOO kernels are bodies of their own.
package core

import "fmt"

// Op selects the element-wise operation of the Tew and Ts kernels.
type Op int

const (
	// Add is element-wise/scalar addition.
	Add Op = iota
	// Sub is element-wise subtraction.
	Sub
	// Mul is element-wise/scalar multiplication (the Hadamard product for Tew).
	Mul
	// Div is element-wise division.
	Div
)

func (o Op) String() string {
	switch o {
	case Add:
		return "add"
	case Sub:
		return "sub"
	case Mul:
		return "mul"
	case Div:
		return "div"
	}
	return "unknown"
}

// Apply evaluates the scalar operation.
func (o Op) Apply(a, b float32) float32 {
	switch o {
	case Add:
		return a + b
	case Sub:
		return a - b
	case Mul:
		return a * b
	case Div:
		return a / b
	}
	panic(fmt.Sprintf("core: unknown op %d", int(o)))
}

// DefaultR is the factor-matrix column count used throughout the paper's
// experiments ("we use 16 as the column size for matrices in Ttm and
// Mttkrp, to reflect the low-rank feature in popular tensor methods").
const DefaultR = 16
