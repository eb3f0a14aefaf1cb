package parallel

// Strategy names how concurrent workers combine partial results into a
// shared reduction output — the choice the paper's Observation 5 singles
// out for COO-Mttkrp, where "omp atomic" contention on popular output
// rows limits multicore scaling and privatization ([42]) is the remedy.
// Every kernel's default is owner-computes; Atomic and Privatized are
// explicit requests, honored as ablations only by COO Mttkrp (both) and
// HiCOO Mttkrp (Atomic).
type Strategy int

const (
	// Auto, the zero value, runs each kernel's default decomposition,
	// owner-computes.
	Auto Strategy = iota
	// Owner is the owner-computes decomposition, where every output
	// element has exactly one writer: Ttv and Ttm over fibers, COO and
	// HiCOO Mttkrp over the output rows of a mode-sorted copy. Those
	// kernels run it for Auto and report it.
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
