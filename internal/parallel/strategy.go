package parallel

// Strategy selects how concurrent workers combine partial results into a
// shared reduction output — the choice the paper's Observation 5 singles
// out for COO-Mttkrp, where "omp atomic" contention on popular output
// rows limits multicore scaling and privatization ([42]) is the remedy.
type Strategy int

const (
	// Auto lets the runtime pick a strategy per invocation from the
	// reduction's shape (output size × threads vs update count).
	Auto Strategy = iota
	// Owner labels the owner-computes decomposition, where every output
	// element has exactly one writer: the fiber-parallel Ttv and Ttm
	// kernels, which always run it and report it. Choose never returns
	// it: requested of a kernel that resolves a strategy, it degrades to
	// Atomic.
	Owner
	// Atomic updates the shared output with atomic read-modify-write
	// ("omp atomic"): no extra memory, but popular output elements
	// serialize the workers.
	Atomic
	// Privatized gives each worker a private copy of the output drawn
	// from the shared Workspace, merged after the loop: atomic-free
	// updates at a memory cost of threads × output (T×Iₙ×R for Mttkrp).
	Privatized
)

func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case Owner:
		return "owner"
	case Atomic:
		return "atomic"
	case Privatized:
		return "privatized"
	}
	return "unknown"
}

// ReductionShape describes one reduction invocation for Choose.
type ReductionShape struct {
	// OutElems is the number of output elements the loop scatters into.
	OutElems int
	// Updates is the total number of accumulate operations the loop
	// performs across all output elements; Updates/OutElems is the mean
	// contention per element.
	Updates int
	// Threads is the resolved worker count; <= 0 reads NumThreads once.
	Threads int
}

const (
	// PrivatizationBudget caps the total private elements (threads ×
	// output) Auto will spend on private output copies: past this point
	// the zero+merge traffic and memory footprint outweigh saved atomics.
	PrivatizationBudget = 1 << 24

	// privatizeReuseFactor is the minimum mean updates-per-output-element
	// for Auto to privatize: each private element is zeroed and merged
	// once, so it must absorb at least a few updates to pay for itself.
	privatizeReuseFactor = 2
)

// Choose resolves a requested strategy against the shape of one
// reduction. Explicit Atomic and Privatized requests are honored and
// Owner degrades to Atomic; Auto privatizes when the output is small and
// hot enough for private copies to pay off, and falls back to Atomic for
// a single worker (whose callers skip real atomics) and for large or
// sparsely-updated outputs.
//
// Choose stays a call of its own: inlined into its one caller, core's
// planReduction, it would take its text out of this package and move
// everything linked after it (tensor's readers, hicoo's conversions,
// core's kernels) by 32 bytes mod 64, a placement shift that moves the
// benchmark's kernel ratios by up to 10 % (EXPERIMENTS.md, "Ttv and Ttm
// owner-computes only").
//
//go:noinline
func Choose(requested Strategy, sh ReductionShape) Strategy {
	if sh.Threads <= 0 {
		sh.Threads = NumThreads()
	}
	switch requested {
	case Atomic, Privatized:
		return requested
	case Owner:
		return Atomic
	}
	if sh.Threads > 1 && sh.OutElems > 0 &&
		int64(sh.OutElems)*int64(sh.Threads) <= PrivatizationBudget &&
		sh.Updates >= privatizeReuseFactor*sh.OutElems {
		return Privatized
	}
	return Atomic
}
