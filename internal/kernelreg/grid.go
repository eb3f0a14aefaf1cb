package kernelreg

import (
	"fmt"
	"strings"

	"repro/internal/roofline"
)

// Grid generation. The registry's variant grid is produced by
// enumerating kernel × format × backend and applying three rules,
// instead of hand-listing every cell:
//
//  1. A cell claimed by the hand-tuned override table (variants.go)
//     registers that implementation — the suite's tuned fast paths.
//  2. An unclaimed cell whose format declares a level signature and
//     whose kernel instantiates over any hierarchy (Ttv and Ttm as
//     fiber plans on the leaf level, Mttkrp as the tree plan from the
//     root, on the OMP backend) registers the generic implementation.
//  3. A cell on the OOC backend whose kernel has a streaming body
//     (Ttv, Mttkrp over a COO tile stream) registers the out-of-core
//     implementation (streaming.go) — so the streamed kernels are
//     verified by pastaverify and fault-drilled by the chaos matrix
//     like every in-core variant.
//
// Adding a format is therefore one signature declaration: blocked-CSF
// appears in pastaverify, pastabench, pastainfo, and the chaos matrix
// with zero kernel code. The CI grid lint (completeness tests) asserts
// rule 2's closure: every declared hierarchy × generic kernel × OMP
// cell is registered and verifies against the serial-COO reference.

// genericKernels lists the kernels that instantiate over any hierarchy.
var genericKernels = []roofline.Kernel{roofline.Ttv, roofline.Ttm, roofline.Mttkrp}

// streamingKernels lists the kernels with out-of-core streaming bodies
// (internal/ooc).
var streamingKernels = []roofline.Kernel{roofline.Ttv, roofline.Mttkrp}

// streamingCell reports whether rule 3 fills (k, f, b): the streaming
// bodies consume a COO tile stream on the OOC backend.
func streamingCell(k roofline.Kernel, f roofline.Format, b Backend) bool {
	if b != OOC || f != roofline.COO {
		return false
	}
	for _, sk := range streamingKernels {
		if sk == k {
			return true
		}
	}
	return false
}

// genericCell reports whether rule 2 fills (k, f, b): the generic
// bodies run on parallel.For (OMP) and need a level view of the format.
func genericCell(k roofline.Kernel, f roofline.Format, b Backend) bool {
	if b != OMP {
		return false
	}
	if _, ok := LevelSignature(f, 3, 7); !ok {
		return false
	}
	for _, gk := range genericKernels {
		if gk == k {
			return true
		}
	}
	return false
}

// levelsLabel renders a format's level signature for display (order 3,
// the paper's default block bits), without the format-name prefix.
func levelsLabel(f roofline.Format) string {
	sig, ok := LevelSignature(f, 3, 7)
	if !ok {
		return ""
	}
	s := sig.String()
	if i := strings.Index(s, ": "); i >= 0 {
		return s[i+2:]
	}
	return s
}

func init() {
	hand := handTuned()
	for _, k := range roofline.Kernels {
		for _, f := range roofline.Formats {
			for _, b := range Backends {
				key := regKey{k, f, b}
				if h, ok := hand[key]; ok {
					registerCell(k, f, b, h.caps, false, h.prep)
					delete(hand, key)
					continue
				}
				if genericCell(k, f, b) {
					// All three are prepared plans with a native serial
					// rung.
					caps := Caps{
						ModeDependent: true,
						NeedsFactors:  k == roofline.Ttm || k == roofline.Mttkrp,
					}
					registerCell(k, f, b, caps, true, genericPrep(k, f))
					continue
				}
				if streamingCell(k, f, b) {
					// The serial rung is the deterministic stream — a
					// native path, not the COO reference — so SerialRef
					// stays unset.
					caps := Caps{
						ModeDependent: true,
						NeedsFactors:  k == roofline.Mttkrp,
					}
					registerCell(k, f, b, caps, false, streamingPrep(k))
				}
			}
		}
	}
	if len(hand) != 0 {
		// An override keyed outside the enumerated space would silently
		// vanish from the grid; fail the build's first test instead.
		panic(fmt.Sprintf("kernelreg: %d hand-tuned overrides not reachable by grid enumeration", len(hand)))
	}
}

// registerCell wires one grid cell into the registry.
func registerCell(k roofline.Kernel, f roofline.Format, b Backend, caps Caps, generated bool,
	prep func(wb *Workbench, mode int, b Backend) (*Instance, error)) {
	Register(&Variant{
		Kernel: k, Format: f, Backend: b, Caps: caps,
		Generated: generated,
		Levels:    levelsLabel(f),
		Model:     tableModel(k, f),
		Prepare:   func(wb *Workbench, mode int) (*Instance, error) { return prep(wb, mode, b) },
	})
}
