package kernelreg

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/resilience"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// TestGridGeneration is the grid-closure lint: the registered grid must
// be exactly what enumerating kernel × format × backend under the two
// generation rules produces — every hand-tuned override claims its
// cell, every unclaimed (generic kernel, level-view format, OMP) cell
// carries a generated variant, and nothing else exists. A format added
// by declaring its level signature shows up here without kernel code;
// a generated variant leaking into a cell the rules don't cover fails
// here, not in a benchmark run.
func TestGridGeneration(t *testing.T) {
	hand := handTuned()
	expected := 0
	for _, k := range roofline.Kernels {
		for _, f := range roofline.Formats {
			for _, b := range Backends {
				_, claimed := hand[regKey{k, f, b}]
				wantGenerated := !claimed && genericCell(k, f, b)
				wantStreaming := !claimed && !wantGenerated && streamingCell(k, f, b)
				v, err := Lookup(k, f, b)
				switch {
				case claimed || wantGenerated || wantStreaming:
					expected++
					if err != nil {
						t.Errorf("%s/%s@%s: expected in grid, Lookup: %v", k, f, b, err)
						continue
					}
					if v.Generated != wantGenerated {
						t.Errorf("%s: Generated = %v, want %v", v, v.Generated, wantGenerated)
					}
				default:
					if err == nil {
						t.Errorf("%s/%s@%s: registered but neither hand-tuned nor generable", k, f, b)
					}
				}
			}
		}
	}
	if got := len(All()); got != expected {
		t.Errorf("registry holds %d variants, enumeration expects %d", got, expected)
	}

	// Every generated variant carries the capability contract rule 2
	// assigns and a printable level signature.
	for _, v := range All() {
		if !v.Generated {
			continue
		}
		if v.Backend != OMP {
			t.Errorf("%s: generated off the OMP backend", v)
		}
		if !v.Caps.ModeDependent {
			t.Errorf("%s: generated variant caps %+v lack ModeDependent", v, v.Caps)
		}
		wantFactors := v.Kernel == roofline.Ttm || v.Kernel == roofline.Mttkrp
		if v.Caps.NeedsFactors != wantFactors {
			t.Errorf("%s: NeedsFactors = %v, want %v", v, v.Caps.NeedsFactors, wantFactors)
		}
		// All three are prepared plans with a native serial rung; only the
		// fiber plans of Ttv and Ttm report a decomposition, owner-computes
		// (tree Mttkrp commits whole rows).
		if wantStrategy := v.Kernel != roofline.Mttkrp; v.Caps.SerialRef || v.Caps.StrategyAware != wantStrategy {
			t.Errorf("%s: generated variant caps %+v, want no SerialRef and StrategyAware = %v", v, v.Caps, wantStrategy)
		}
		if v.Levels == "" {
			t.Errorf("%s: generated variant has no level signature", v)
		}
	}

	// The element-wise kernels have no generic level-iterator body, so
	// the tree formats stay unregistered for them even under generation.
	for _, k := range []roofline.Kernel{roofline.Tew, roofline.Ts} {
		for _, f := range []roofline.Format{roofline.CSF, roofline.BCSF} {
			if _, err := Lookup(k, f, OMP); !errors.Is(err, resilience.ErrUnsupported) {
				t.Errorf("Lookup(%s, %s) error = %v, want ErrUnsupported", k, f, err)
			}
		}
	}

	// bCSF itself arrived purely by declaration: every generic kernel
	// must reach it.
	for _, k := range genericKernels {
		if _, err := Lookup(k, roofline.BCSF, OMP); err != nil {
			t.Errorf("declared format bCSF missing %s variant: %v", k, err)
		}
	}

	// Rule 3: the streaming kernels exist on the OOC backend, carry the
	// streaming capability contract, and nothing else does.
	for _, k := range streamingKernels {
		v, err := Lookup(k, roofline.COO, OOC)
		if err != nil {
			t.Errorf("streaming kernel %s missing OOC variant: %v", k, err)
			continue
		}
		if v.Generated {
			t.Errorf("%s: streaming variant marked Generated", v)
		}
		if !v.Caps.ModeDependent || v.Caps.SerialRef || v.Caps.StrategyAware {
			t.Errorf("%s: streaming variant caps %+v, want ModeDependent only", v, v.Caps)
		}
		if want := k == roofline.Mttkrp; v.Caps.NeedsFactors != want {
			t.Errorf("%s: NeedsFactors = %v, want %v", v, v.Caps.NeedsFactors, want)
		}
	}
	for _, k := range []roofline.Kernel{roofline.Tew, roofline.Ts, roofline.Ttm} {
		if _, err := Lookup(k, roofline.COO, OOC); !errors.Is(err, resilience.ErrUnsupported) {
			t.Errorf("Lookup(%s, COO, ooc) error = %v, want ErrUnsupported", k, err)
		}
	}
}

// TestGeneratedVariantsVerify runs every generated variant through the
// registry's own Verify gate on every mode: the generic bodies must
// agree with the serial COO reference within the suite tolerance. This
// is the acceptance check that a declared format is actually runnable,
// not just enumerable.
func TestGeneratedVariantsVerify(t *testing.T) {
	x := lintTensor()
	wb := NewWorkbench(x, DefaultConfig())
	ctx := context.Background()
	for _, v := range All() {
		if !v.Generated {
			continue
		}
		for mode := 0; mode < v.Modes(x); mode++ {
			dev, err := v.Verify(ctx, wb, mode)
			if err != nil {
				t.Errorf("%s mode %d: Verify: %v", v, mode, err)
				continue
			}
			if dev > agreementTol {
				t.Errorf("%s mode %d: deviation %g exceeds %g", v, mode, dev, agreementTol)
			}
		}
	}
}

// agreementShapes are the structural extremes the generic bodies must
// survive: dense-ish (long runs, dense-level candidates), hypersparse
// (every fiber nearly a singleton), and a degenerate mode of extent 1.
var agreementShapes = []struct {
	name string
	dims []tensor.Index
	nnz  int
}{
	{"dense-ish", []tensor.Index{24, 20, 16}, 4000},
	{"hypersparse", []tensor.Index{3000, 2500, 2000}, 600},
	{"degenerate-1mode", []tensor.Index{50, 1, 60}, 800},
}

// TestGenericAgreesWithHandTuned instantiates the generic
// level-iterator body for every level-view format — including the
// cells where a hand-tuned override wins the registry slot — and
// checks it against the hand-tuned output (when one exists) and the
// serial COO reference, across the structural-extreme shapes. This
// pins the contract that lets hand-tuned kernels remain pure
// fast-path overrides: both implementations compute the same thing.
func TestGenericAgreesWithHandTuned(t *testing.T) {
	ctx := context.Background()
	for _, sh := range agreementShapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			x := tensor.RandomCOO(sh.dims, sh.nnz, rand.New(rand.NewSource(42)))
			wb := NewWorkbench(x, DefaultConfig())
			for _, k := range genericKernels {
				for _, f := range roofline.Formats {
					if _, ok := LevelSignature(f, x.Order(), wb.cfg.BlockBits); !ok {
						continue
					}
					prep := genericPrep(k, f)
					for mode := 0; mode < x.Order(); mode++ {
						inst, err := prep(wb, mode, OMP)
						if err != nil {
							t.Errorf("%s/%s mode %d: generic prepare: %v", k, f, mode, err)
							continue
						}
						if err := inst.Run(ctx); err != nil {
							t.Errorf("%s/%s mode %d: generic run: %v", k, f, mode, err)
							continue
						}
						gen := inst.Output()
						ref, err := wb.Reference(ctx, k, mode)
						if err != nil {
							t.Fatalf("%s mode %d: reference: %v", k, mode, err)
						}
						if dev := Compare(gen, ref); dev > agreementTol {
							t.Errorf("%s/%s mode %d: generic vs reference deviation %g", k, f, mode, dev)
						}
						// Hand-tuned fast path, when this cell has one.
						hv, err := Lookup(k, f, OMP)
						if err != nil || hv.Generated {
							continue
						}
						hinst, err := hv.Prepare(wb, mode)
						if err != nil {
							t.Errorf("%s mode %d: hand prepare: %v", hv, mode, err)
							continue
						}
						if err := hinst.Run(ctx); err != nil {
							t.Errorf("%s mode %d: hand run: %v", hv, mode, err)
							continue
						}
						if dev := Compare(gen, hinst.Output()); dev > agreementTol {
							t.Errorf("%s/%s mode %d: generic vs hand-tuned deviation %g", k, f, mode, dev)
						}
					}
				}
			}
		})
	}
}

// TestEstimateCoversMeasuredPerFormat is the admission-control check for
// every planner-reachable format: after actually preparing the host
// Mttkrp variant on all modes (which materializes the format's storage
// through the planner or the hand-tuned conversion), the up-front
// EstimateFootprint must land within an order of magnitude of the
// measured workbench — close enough to admit by, never absurdly small.
func TestEstimateCoversMeasuredPerFormat(t *testing.T) {
	ctx := context.Background()
	for _, f := range roofline.Formats {
		if _, ok := LevelSignature(f, 3, 7); !ok {
			continue
		}
		f := f
		t.Run(f.String(), func(t *testing.T) {
			x := tensor.RandomCOO([]tensor.Index{50, 60, 70}, 5000, rand.New(rand.NewSource(3)))
			wb := NewWorkbench(x, DefaultConfig())
			v, err := HostVariant(roofline.Mttkrp, f)
			if err != nil {
				t.Fatalf("HostVariant(Mttkrp, %s): %v", f, err)
			}
			for mode := 0; mode < v.Modes(x); mode++ {
				inst, err := v.Prepare(wb, mode)
				if err != nil {
					t.Fatalf("mode %d: %v", mode, err)
				}
				if err := inst.Run(ctx); err != nil {
					t.Fatalf("mode %d: %v", mode, err)
				}
			}
			measured := wb.MemBytes()
			est := EstimateFootprint(roofline.Mttkrp, f, []int64{50, 60, 70}, int64(x.NNZ()), Config{})
			if est.Workbench < measured/10 || est.Workbench > measured*10 {
				t.Fatalf("%s: estimated workbench %d vs measured %d: off by more than 10x",
					f, est.Workbench, measured)
			}
		})
	}
}
