package pasta

import (
	"math/rand"

	"repro/internal/algo"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/csf"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/fcoo"
	"repro/internal/gen"
	"repro/internal/gpusim"
	"repro/internal/hicoo"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/platform"
	"repro/internal/reorder"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// Scalar and tensor types.
type (
	// Value is the element type (single precision, as in the paper).
	Value = tensor.Value
	// Index is the 32-bit coordinate type.
	Index = tensor.Index
	// COO is a sparse tensor in coordinate format.
	COO = tensor.COO
	// SemiCOO is the sCOO semi-sparse format (dense modes stored densely).
	SemiCOO = tensor.SemiCOO
	// Matrix is a dense row-major factor matrix.
	Matrix = tensor.Matrix
	// Vector is a dense vector.
	Vector = tensor.Vector
	// HiCOO is the hierarchical coordinate format.
	HiCOO = hicoo.HiCOO
	// GHiCOO is the generalized HiCOO with selectable compressed modes.
	GHiCOO = hicoo.GHiCOO
	// SemiHiCOO is the semi-sparse HiCOO variant.
	SemiHiCOO = hicoo.SemiHiCOO
	// CSF is the compressed sparse fiber format (extension, paper §7).
	CSF = csf.CSF
	// FCOO is the flagged COO format for segmented GPU kernels (§3 cite).
	FCOO = fcoo.FCOO
	// Device is the simulated CUDA device GPU kernels run on.
	Device = gpusim.Device
	// FiberStats summarizes a tensor's fiber-length distribution.
	FiberStats = tensor.FiberStats
	// LoadStats reports tensor-load throughput (bytes, nnz, elapsed).
	LoadStats = tensor.LoadStats
)

// Kernel plan types: Prepare* performs the preprocessing stage (sorting,
// fiber detection, output allocation), Execute{Seq,OMP,GPU} the timed
// value computation.
type (
	// TewPlan is the COO element-wise kernel plan.
	TewPlan = core.TewPlan
	// TsPlan is the COO tensor-scalar kernel plan.
	TsPlan = core.TsPlan
	// TtvPlan is the COO tensor-times-vector kernel plan.
	TtvPlan = core.TtvPlan
	// TtmPlan is the COO tensor-times-matrix kernel plan.
	TtmPlan = core.TtmPlan
	// MttkrpPlan is the COO Mttkrp kernel plan.
	MttkrpPlan = core.MttkrpPlan
	// TewHiCOOPlan is the HiCOO element-wise kernel plan.
	TewHiCOOPlan = core.TewHiCOOPlan
	// TsHiCOOPlan is the HiCOO tensor-scalar kernel plan.
	TsHiCOOPlan = core.TsHiCOOPlan
	// TtvHiCOOPlan is the HiCOO (gHiCOO-input) Ttv kernel plan.
	TtvHiCOOPlan = core.TtvHiCOOPlan
	// TtmHiCOOPlan is the HiCOO Ttm kernel plan (sHiCOO output).
	TtmHiCOOPlan = core.TtmHiCOOPlan
	// MttkrpHiCOOPlan is the HiCOO Mttkrp kernel plan (Algorithm 2).
	MttkrpHiCOOPlan = core.MttkrpHiCOOPlan
	// Op selects an element-wise operation.
	Op = core.Op
	// Options configures OpenMP-style loop scheduling.
	Options = parallel.Options
	// Strategy selects the reduction-update strategy of the OMP kernels.
	Strategy = parallel.Strategy
	// WorkspaceStats reports the pooled reduction-workspace counters.
	WorkspaceStats = parallel.WorkspaceStats
)

// Reduction strategies (Options.Strategy).
const (
	// StrategyAuto lets the runtime pick per call from the reduction shape.
	StrategyAuto = parallel.Auto
	// StrategyOwner forces the race-free owner-computes decomposition.
	StrategyOwner = parallel.Owner
	// StrategyAtomic forces racy updates guarded by atomic float adds.
	StrategyAtomic = parallel.Atomic
	// StrategyPrivatized forces pooled per-worker private outputs + merge.
	StrategyPrivatized = parallel.Privatized
)

// ReductionWorkspaceStats reports hit/miss/retained-bytes counters of the
// shared privatization workspace pool.
func ReductionWorkspaceStats() WorkspaceStats { return parallel.SharedWorkspace().Stats() }

// Element-wise operations.
const (
	// OpAdd is addition.
	OpAdd = core.Add
	// OpSub is subtraction.
	OpSub = core.Sub
	// OpMul is multiplication.
	OpMul = core.Mul
	// OpDiv is division.
	OpDiv = core.Div
)

// DefaultR is the paper's factor-matrix column count (16).
const DefaultR = core.DefaultR

// DefaultBlockBits is log2 of the paper's HiCOO block size (B=128).
const DefaultBlockBits = hicoo.DefaultBlockBits

// Tensor constructors and I/O.
var (
	// NewCOO returns an empty COO tensor.
	NewCOO = tensor.NewCOO
	// NewMatrix returns a zeroed dense matrix.
	NewMatrix = tensor.NewMatrix
	// NewVector returns a zeroed dense vector.
	NewVector = tensor.NewVector
	// RandomVector returns a uniform random vector.
	RandomVector = tensor.RandomVector
	// RandomCOO generates a uniformly sparse random tensor.
	RandomCOO = tensor.RandomCOO
	// ReadTNS parses the FROSTT .tns text format.
	ReadTNS = tensor.ReadTNS
	// ReadTNSFile reads a .tns file.
	ReadTNSFile = tensor.ReadTNSFile
	// ParseTNS parses in-memory .tns bytes, in parallel on large inputs.
	ParseTNS = tensor.ParseTNS
	// WriteTNS emits the FROSTT .tns text format.
	WriteTNS = tensor.WriteTNS
	// WriteTNSFile writes a .tns file.
	WriteTNSFile = tensor.WriteTNSFile
	// ReadBinary parses the PSTB binary format (v1, v2, or the tiled v3,
	// which it assembles in core).
	ReadBinary = tensor.ReadBinary
	// WriteBinary emits the checksummed PSTB v2 binary format.
	WriteBinary = tensor.WriteBinary
	// ReadTensorFile loads .bten / .tns / .tns.gz by extension.
	ReadTensorFile = tensor.ReadFile
	// ReadTensorFileStats loads like ReadTensorFile and also reports
	// load throughput.
	ReadTensorFileStats = tensor.ReadFileStats
	// WriteTensorFile stores .bten / .tns / .tns.gz by extension.
	WriteTensorFile = tensor.WriteFile
	// ComputeFiberStats measures a tensor's mode-n fiber distribution.
	ComputeFiberStats = tensor.ComputeFiberStats
)

// Format conversions.
var (
	// ToHiCOO converts COO → HiCOO with the given block bits (log2 B).
	ToHiCOO = hicoo.FromCOO
	// ToGHiCOO converts COO → gHiCOO compressing the listed modes.
	ToGHiCOO = hicoo.FromCOOModes
	// ToGHiCOOExceptMode compresses every mode but one (Ttv/Ttm input).
	ToGHiCOOExceptMode = hicoo.FromCOOExceptMode
	// ToCSF converts COO → CSF with the given level→mode order.
	ToCSF = csf.FromCOO
	// ToFCOO converts COO → mode-specific F-COO (Ttv layout).
	ToFCOO = fcoo.FromCOO
	// ToFCOOMttkrp converts COO → F-COO in the Mttkrp (output-mode) layout.
	ToFCOOMttkrp = fcoo.FromCOOMttkrp
)

// One-shot sequential kernels (prepare + execute).
var (
	// Tew computes Z = X op Y element-wise.
	Tew = core.Tew
	// Ts computes Y = X op s on the non-zero values.
	Ts = core.Ts
	// Ttv computes Y = X ×ₙ v.
	Ttv = core.Ttv
	// Ttm computes Y = X ×ₙ U (sCOO output).
	Ttm = core.Ttm
	// TtmSemi computes Y = X ×ₙ U for a semi-sparse (sCOO) input.
	TtmSemi = core.TtmSemi
	// TtvSemi computes Y = X ×ₙ v for a semi-sparse (sCOO) input.
	TtvSemi = core.TtvSemi
	// Mttkrp computes Ã = X₍ₙ₎ (⨀_{m≠n} U⁽ᵐ⁾).
	Mttkrp = core.Mttkrp
)

// Kernel plans (preprocessing/execution split, as benchmarked).
var (
	// PrepareTew builds a COO element-wise plan.
	PrepareTew = core.PrepareTew
	// PrepareTs builds a COO tensor-scalar plan.
	PrepareTs = core.PrepareTs
	// PrepareTtv builds a COO Ttv plan for a mode.
	PrepareTtv = core.PrepareTtv
	// PrepareTtm builds a COO Ttm plan for a mode and R.
	PrepareTtm = core.PrepareTtm
	// PrepareMttkrp builds a COO Mttkrp plan for a mode and R.
	PrepareMttkrp = core.PrepareMttkrp
	// PrepareTtmSemi builds a semi-sparse Ttm plan (TTM-chain steps).
	PrepareTtmSemi = core.PrepareTtmSemi
	// PrepareTewHiCOO builds a HiCOO element-wise plan.
	PrepareTewHiCOO = core.PrepareTewHiCOO
	// PrepareTsHiCOO builds a HiCOO tensor-scalar plan.
	PrepareTsHiCOO = core.PrepareTsHiCOO
	// PrepareTtvHiCOO builds a HiCOO Ttv plan (gHiCOO input).
	PrepareTtvHiCOO = core.PrepareTtvHiCOO
	// PrepareTtmHiCOO builds a HiCOO Ttm plan (sHiCOO output).
	PrepareTtmHiCOO = core.PrepareTtmHiCOO
	// PrepareMttkrpHiCOO builds a HiCOO Mttkrp plan (Algorithm 2).
	PrepareMttkrpHiCOO = core.PrepareMttkrpHiCOO
)

// Dynamic returns the dynamic-scheduling options recommended for skewed
// fiber lengths.
func Dynamic() Options { return Options{Schedule: parallel.Dynamic} }

// Static returns static-scheduling options.
func Static() Options { return Options{Schedule: parallel.Static} }

// Guided returns guided-scheduling options.
func Guided() Options { return Options{Schedule: parallel.Guided} }

// SetNumThreads overrides the CPU worker count (OMP_NUM_THREADS).
func SetNumThreads(n int) { parallel.SetNumThreads(n) }

// NewDevice returns a simulated CUDA device with the given SM count
// (0 selects the host core count).
var NewDevice = gpusim.NewDevice

// Distributed-memory execution (extension; §7 "distributed systems").
type (
	// NetworkModel is the alpha-beta communication cost model.
	NetworkModel = dist.NetworkModel
	// DistEngine shards a tensor across simulated workers and runs
	// Mttkrp, Ttv, and CP-ALS with fault-tolerant re-shard retry.
	DistEngine = dist.Engine
	// DistOptions configures a DistEngine (ranks, shard format, network).
	DistOptions = dist.Options
	// DistStats reports a DistEngine's attempts, failures, and comm traffic.
	DistStats = dist.Stats
	// RankError identifies which simulated rank failed a collective.
	RankError = dist.RankError
)

var (
	// NewDistEngine builds a fault-tolerant sharded execution engine.
	NewDistEngine = dist.NewEngine
	// DefaultNetwork approximates a 100 Gb/s interconnect.
	DefaultNetwork = dist.DefaultNetwork
)

// Shard-format selectors for DistOptions.
const (
	DistFormatCOO   = dist.FormatCOO
	DistFormatHiCOO = dist.FormatHiCOO
)

// Synthetic tensor generation (§4.2).
type (
	// Initiator is the Kronecker initiator tensor τ₁.
	Initiator = gen.Initiator
	// PowerLawConfig configures the biased power-law generator.
	PowerLawConfig = gen.PowerLawConfig
)

var (
	// Kronecker generates a tensor from the stochastic Kronecker model.
	Kronecker = gen.Kronecker
	// DefaultInitiator returns the RMAT-style corner-biased initiator.
	DefaultInitiator = gen.DefaultInitiator
	// PowerLaw generates a tensor from the biased power-law model.
	PowerLaw = gen.PowerLaw
)

// Tensor methods built on the kernels (§2 applications, §7 extensions).
type (
	// CPResult is a CP decomposition.
	CPResult = algo.CPResult
	// CPSweep is the per-sweep record (fit, seconds, seconds in Mttkrp)
	// of a CP decomposition.
	CPSweep = algo.CPSweep
	// RankOneResult is a rank-1 (power method) approximation.
	RankOneResult = algo.RankOneResult
	// TuckerResult is a Tucker decomposition (core + orthonormal factors).
	TuckerResult = algo.TuckerResult
	// DenseTensor is a small dense core tensor.
	DenseTensor = algo.DenseTensor
)

var (
	// CPALS runs CANDECOMP/PARAFAC alternating least squares.
	CPALS = algo.CPALS
	// NNCP runs nonnegative CP via multiplicative updates.
	NNCP = algo.NNCP
	// PowerMethod runs the higher-order power method.
	PowerMethod = algo.PowerMethod
	// TtvChain contracts all modes but one against vectors.
	TtvChain = algo.TtvChain
	// TTMChain computes a Tucker-style core via chained Ttm.
	TTMChain = algo.TTMChain
	// TuckerHOOI runs higher-order orthogonal iteration (Tucker).
	TuckerHOOI = algo.TuckerHOOI
	// Contract computes a sparse × sparse tensor contraction (§7).
	Contract = contract.Contract
	// InnerProduct is the fully sparse tensor dot product.
	InnerProduct = contract.InnerProduct
	// SpTtv is tensor-times-sparse-vector (§7).
	SpTtv = contract.SpTtv
)

// Performance analysis (Table 1, Figure 3, Figures 4-7).
type (
	// Platform describes one Table 4 machine.
	Platform = platform.Platform
	// RooflineParams carries the Table 1 formula inputs.
	RooflineParams = roofline.Params
	// BenchConfig holds the experiment parameters of §5.1.2.
	BenchConfig = metrics.Config
	// BenchResult is one performance point of Figures 4-7.
	BenchResult = metrics.Result
	// DatasetEntry describes one Table 2/3 tensor.
	DatasetEntry = dataset.Entry
)

var (
	// Platforms returns the four Table 4 machines.
	Platforms = platform.All
	// PlatformByName resolves a platform by name.
	PlatformByName = platform.ByName
	// MeasureHostPlatform runs the ERT micro-benchmarks on the host.
	MeasureHostPlatform = roofline.MeasureHost
	// RooflineAttainable returns min(peak, OI × ERT-DRAM bandwidth).
	RooflineAttainable = roofline.Attainable
	// DefaultBenchConfig returns the paper's experiment configuration.
	DefaultBenchConfig = metrics.DefaultConfig
	// MeasureHostKernel times one kernel×format on the host.
	MeasureHostKernel = metrics.MeasureHost
	// ModelKernel predicts one kernel×format on a modeled platform.
	ModelKernel = metrics.Model
	// RealTensors returns the Table 2 registry.
	RealTensors = dataset.RealTensors
	// SyntheticTensors returns the Table 3 registry.
	SyntheticTensors = dataset.Synthetic
	// DatasetByID resolves a dataset entry by ID or name.
	DatasetByID = dataset.ByID
	// Materialize produces a dataset tensor (real file or scaled stand-in).
	Materialize = dataset.Materialize
)

// GenerateSeeded returns a deterministic RNG for reproducible tensor
// generation.
func GenerateSeeded(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Reordering (extension; §3.2.1 cites reordering as the locality lever
// for the irregular gathers of Ttv/Ttm/Mttkrp).
type (
	// Reordering is a per-mode index relabeling.
	Reordering = reorder.Perm
)

var (
	// ReorderIdentity returns the identity relabeling.
	ReorderIdentity = reorder.Identity
	// ReorderRandom returns a uniform random relabeling (locality baseline).
	ReorderRandom = reorder.Random
	// ReorderByDegree packs heavy indices first per mode.
	ReorderByDegree = reorder.ByDegree
	// ReorderFirstTouch relabels indices in fiber-sweep first-touch order.
	ReorderFirstTouch = reorder.FirstTouch
)
