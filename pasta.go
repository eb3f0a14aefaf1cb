package pasta

import (
	"math/rand"

	"repro/internal/algo"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/gpusim"
	"repro/internal/hicoo"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Scalar and dense types.
type (
	// Value is the element type (single precision, as in the paper).
	Value = tensor.Value
	// Index is the 32-bit coordinate type.
	Index = tensor.Index
	// Matrix is a dense row-major factor matrix.
	Matrix = tensor.Matrix
)

// Element-wise operations.
const (
	// OpAdd is addition.
	OpAdd = core.Add
	// OpMul is multiplication.
	OpMul = core.Mul
)

// DefaultR is the paper's factor-matrix column count (16).
const DefaultR = core.DefaultR

// DefaultBlockBits is log2 of the paper's HiCOO block size (B=128).
const DefaultBlockBits = hicoo.DefaultBlockBits

// Tensor constructors and the HiCOO conversion.
var (
	// NewCOO returns an empty COO tensor.
	NewCOO = tensor.NewCOO
	// NewMatrix returns a zeroed dense matrix.
	NewMatrix = tensor.NewMatrix
	// NewVector returns a zeroed dense vector.
	NewVector = tensor.NewVector
	// RandomCOO generates a uniformly sparse random tensor.
	RandomCOO = tensor.RandomCOO
	// ToHiCOO converts COO → HiCOO with the given block bits (log2 B).
	ToHiCOO = hicoo.FromCOO
)

// One-shot sequential kernels (prepare + execute).
var (
	// Tew computes Z = X op Y element-wise.
	Tew = core.Tew
	// Ts computes Y = X op s on the non-zero values.
	Ts = core.Ts
	// Ttm computes Y = X ×ₙ U (sCOO output).
	Ttm = core.Ttm
	// Mttkrp computes Ã = X₍ₙ₎ (⨀_{m≠n} U⁽ᵐ⁾).
	Mttkrp = core.Mttkrp
)

// Kernel plans (preprocessing/execution split, as benchmarked): Prepare*
// performs the preprocessing stage (sorting, fiber detection, output
// allocation), Execute{Seq,OMP,GPU} the timed value computation.
var (
	// PrepareTs builds a COO tensor-scalar plan.
	PrepareTs = core.PrepareTs
	// PrepareTtv builds a COO Ttv plan for a mode.
	PrepareTtv = core.PrepareTtv
	// PrepareMttkrpHiCOO builds a HiCOO Mttkrp plan (Algorithm 2).
	PrepareMttkrpHiCOO = core.PrepareMttkrpHiCOO
)

// Dynamic returns the dynamic-scheduling options recommended for skewed
// fiber lengths.
func Dynamic() parallel.Options { return parallel.Options{Schedule: parallel.Dynamic} }

// Static returns static-scheduling options.
func Static() parallel.Options { return parallel.Options{Schedule: parallel.Static} }

// Device is the simulated CUDA device GPU kernels run on.
type Device = gpusim.Device

// NewDevice returns a simulated CUDA device with the given SM count
// (0 selects the host core count).
var NewDevice = gpusim.NewDevice

// DistOptions configures a distributed engine (ranks, shard format,
// network): the §7 "distributed systems" extension.
type DistOptions = dist.Options

// NewDistEngine shards a tensor across simulated workers that run
// Mttkrp, Ttv and CP-ALS with fault-tolerant re-shard retry.
var NewDistEngine = dist.NewEngine

// Kronecker generates a tensor from the stochastic Kronecker model
// (§4.2).
var Kronecker = gen.Kronecker

// Tensor methods built on the kernels (§2 applications, §7 extensions).
var (
	// CPALS runs CANDECOMP/PARAFAC alternating least squares.
	CPALS = algo.CPALS
	// PowerMethod runs the higher-order power method.
	PowerMethod = algo.PowerMethod
	// TuckerHOOI runs higher-order orthogonal iteration (Tucker).
	TuckerHOOI = algo.TuckerHOOI
	// Contract computes a sparse × sparse tensor contraction (§7).
	Contract = contract.Contract
)

// GenerateSeeded returns a deterministic RNG for reproducible tensor
// generation.
func GenerateSeeded(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
