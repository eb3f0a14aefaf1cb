// Package kernelreg is the suite's single dispatch layer: a declarative
// registry of kernel variants keyed by (kernel, format, backend). Each
// variant knows how to prepare itself on a Workbench, run, validate its
// output, verify against the serial-COO reference, and evaluate its
// Roofline flops/bytes model — so the measurement harness
// (internal/metrics), the verification binary (cmd/pastaverify), the
// table/figure generator (cmd/pastabench), and the chaos matrix
// (internal/resilience) all iterate the same grid instead of each
// hand-enumerating kernel × format switches.
//
// Adding a format or backend is one Register call in one file: the new
// variant immediately appears in pastainfo -variants, is measured by
// metrics.MeasureHost, verified by pastaverify, listed in pastabench
// tables, and fault-drilled by the chaos matrix.
package kernelreg

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// Backend identifies the execution backend of a variant.
type Backend int

const (
	// OMP is the multi-threaded CPU backend (parallel.For).
	OMP Backend = iota
	// GPU is the simulated-GPU backend (gpusim single device).
	GPU
	// MultiGPU partitions across several simulated devices.
	MultiGPU
	// OOC is the out-of-core streaming backend (internal/ooc): kernels
	// run over a PSTB v3 tile stream under a byte budget instead of the
	// in-core tensor.
	OOC
)

// Backends lists the backends in registry order. OOC is last so
// HostVariant keeps preferring the in-core implementations.
var Backends = []Backend{OMP, GPU, MultiGPU, OOC}

func (b Backend) String() string {
	switch b {
	case GPU:
		return "gpu"
	case MultiGPU:
		return "multigpu"
	case OOC:
		return "ooc"
	}
	return "omp"
}

// Caps is the capability metadata consumers use to drive a variant
// without knowing its kernel.
type Caps struct {
	// ModeDependent: the kernel is computed per tensor mode and harnesses
	// sweep/average all modes (Ttv, Ttm, Mttkrp).
	ModeDependent bool
	// NeedsFactors: the kernel consumes dense factor matrices (Ttm,
	// Mttkrp), so R is part of its workload.
	NeedsFactors bool
	// StrategyAware: Instance.Strategy reports the parallel
	// decomposition the path's last omp run took: owner for the Ttv
	// and Ttm fiber plans, which always compute owner-computes; atomic
	// or privatized, as the selector resolved it, for COO and HiCOO
	// Mttkrp.
	StrategyAware bool
	// SerialRef: the cell has no native serial path, so the Instance's
	// Serial rung is the serial COO reference: fCOO's GPU-only kernels.
	SerialRef bool
}

// Variant is one registered (kernel, format, backend) implementation.
type Variant struct {
	Kernel  roofline.Kernel
	Format  roofline.Format
	Backend Backend
	Caps    Caps
	// Generated marks a variant instantiated from the format's level
	// declaration by the generic kernel bodies (internal/levels), as
	// opposed to a hand-tuned registered override.
	Generated bool
	// Levels is the format's declared level signature (rendered for a
	// third-order tensor), empty for formats without a level view.
	Levels string
	// Model is the Roofline hook: Table 1 work and memory traffic for one
	// execution under the given workload parameters.
	Model func(p roofline.Params) (flops, bytes int64)
	// Prepare builds an executable Instance on the workbench for one
	// tensor mode (ignored by mode-independent kernels). Preparation —
	// format conversion, sorting, operand generation — is the untimed
	// preprocessing stage.
	Prepare func(wb *Workbench, mode int) (*Instance, error)
}

// String renders the variant like a resilience label: "Ttv/CSF@omp".
func (v *Variant) String() string {
	return fmt.Sprintf("%s/%s@%s", v.Kernel, v.Format, v.Backend)
}

// Label is the resilience taxonomy label of this variant's trials.
func (v *Variant) Label() resilience.Label {
	return resilience.Label{Kernel: v.Kernel.String(), Format: v.Format.String(), Backend: v.Backend.String()}
}

// Modes returns how many modes of x a harness should sweep for this
// variant: every mode when the kernel is mode-dependent, else one.
func (v *Variant) Modes(x *tensor.COO) int {
	if v.Caps.ModeDependent {
		return x.Order()
	}
	return 1
}

// OI evaluates the variant's model as an operational intensity.
func (v *Variant) OI(p roofline.Params) float64 {
	flops, bytes := v.Model(p)
	if bytes == 0 {
		return 0
	}
	return float64(flops) / float64(bytes)
}

// Pair is one (kernel, format) column of the benchmark grid.
type Pair struct {
	Kernel roofline.Kernel
	Format roofline.Format
}

type regKey struct {
	k roofline.Kernel
	f roofline.Format
	b Backend
}

var (
	variants []*Variant
	index    = make(map[regKey]*Variant)
)

// Register adds a variant to the registry. It panics on a duplicate key
// or a variant missing its Prepare or Model hook — registration happens
// in init, and a malformed variant must fail the build's first test, not
// a later benchmark run.
func Register(v *Variant) {
	if v.Prepare == nil || v.Model == nil {
		panic(fmt.Sprintf("kernelreg: variant %s lacks Prepare or Model", v))
	}
	key := regKey{v.Kernel, v.Format, v.Backend}
	if _, dup := index[key]; dup {
		panic(fmt.Sprintf("kernelreg: duplicate variant %s", v))
	}
	// Wrap Prepare once so every harness gets the preprocessing span for
	// free; the label is rendered here rather than per call because
	// Variant.String allocates.
	prep := v.Prepare
	label := v.String()
	v.Prepare = func(wb *Workbench, mode int) (*Instance, error) {
		sp := obs.Begin("kernelreg.Prepare", label, obs.PhasePrepare, -1)
		defer sp.End()
		return prep(wb, mode)
	}
	index[key] = v
	variants = append(variants, v)
}

// All returns every registered variant in deterministic kernel-major
// (Table 1) order, then format, then backend.
func All() []*Variant {
	out := append([]*Variant(nil), variants...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		if a.Format != b.Format {
			return a.Format < b.Format
		}
		return a.Backend < b.Backend
	})
	return out
}

// Lookup finds the variant for an exact (kernel, format, backend) key.
// The miss is a typed *resilience.KernelError wrapping ErrUnsupported so
// harness outcome aggregation can classify it.
func Lookup(k roofline.Kernel, f roofline.Format, b Backend) (*Variant, error) {
	if v, ok := index[regKey{k, f, b}]; ok {
		return v, nil
	}
	return nil, &resilience.KernelError{
		Label: resilience.Label{Kernel: k.String(), Format: f.String(), Backend: b.String()},
		Err:   resilience.ErrUnsupported,
	}
}

// HostVariant picks the variant MeasureHost times for a (kernel, format):
// the OMP implementation when one is registered, else the first
// simulated-device implementation (how fCOO, a GPU-only format, gets
// host-measured rows).
func HostVariant(k roofline.Kernel, f roofline.Format) (*Variant, error) {
	for _, b := range Backends {
		if v, ok := index[regKey{k, f, b}]; ok {
			return v, nil
		}
	}
	return nil, &resilience.KernelError{
		Label: resilience.Label{Kernel: k.String(), Format: f.String()},
		Err:   resilience.ErrUnsupported,
	}
}

// FormatsFor lists the formats with at least one registered variant of
// kernel k, in roofline.Formats order.
func FormatsFor(k roofline.Kernel) []roofline.Format {
	var out []roofline.Format
	for _, f := range roofline.Formats {
		for _, b := range Backends {
			if _, ok := index[regKey{k, f, b}]; ok {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// BackendsFor lists the backends registered for (kernel, format).
func BackendsFor(k roofline.Kernel, f roofline.Format) []Backend {
	var out []Backend
	for _, b := range Backends {
		if _, ok := index[regKey{k, f, b}]; ok {
			out = append(out, b)
		}
	}
	return out
}

// Grid returns the distinct (kernel, format) pairs with registered
// variants — the columns of the pastabench tables and figures.
func Grid() []Pair {
	var out []Pair
	for _, k := range roofline.Kernels {
		for _, f := range FormatsFor(k) {
			out = append(out, Pair{k, f})
		}
	}
	return out
}

// ModeDependent reports whether kernel k sweeps tensor modes, derived
// from its registered variants' capability metadata.
func ModeDependent(k roofline.Kernel) bool {
	for _, v := range variants {
		if v.Kernel == k {
			return v.Caps.ModeDependent
		}
	}
	return false
}
