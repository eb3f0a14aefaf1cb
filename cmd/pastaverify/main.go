// Command pastaverify is the suite's self-check: it generates tensors
// across the density spectrum (plus any .tns file the user supplies) and
// cross-validates every kernel variant the kernelreg registry knows —
// every kernel × format × backend, COO/HiCOO/CSF/fCOO on OMP, simulated
// GPU, and multi-device — against the serial COO reference, reporting
// the worst relative deviation per variant. Reference benchmark suites
// ship exactly this kind of validation mode so ports to new hardware can
// be trusted before they are timed. The case list comes from
// kernelreg.All(): registering a new variant makes it verified here
// without touching this command.
//
// -kernel/-format/-backend narrow the sweep by case-insensitive
// substring (e.g. -format csf, -backend gpu).
//
// Exit status is 1 when setup fails or any check exceeds the tolerance,
// 2 for a usage error (-nnz below 1, a -tol that is not finite and
// positive), 0 otherwise.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/kernelreg"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/tensor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind main: parse args, verify every
// selected variant on every case, and return the process exit code — 2
// for a usage error, 1 when setup fails or any check exceeds the
// tolerance, 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pastaverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nnz     = fs.Int("nnz", 20000, "non-zeros per generated test tensor")
		seed    = fs.Int64("seed", 1, "generator seed")
		tol     = fs.Float64("tol", 2e-3, "relative tolerance between implementations")
		file    = fs.String("f", "", "also verify against a user-supplied tensor file (.tns, .tns.gz, or .bten)")
		timeout = fs.Duration("timeout", 0, "deadline per verification case, e.g. 2m (0 = none)")
		kernelF = fs.String("kernel", "", "only verify kernels matching this substring (e.g. mttkrp)")
		formatF = fs.String("format", "", "only verify formats matching this substring (e.g. csf)")
		backF   = fs.String("backend", "", "only verify backends matching this substring (e.g. gpu)")
		trace   = fs.String("trace", "", "write a Chrome trace_event JSON of the verification sweep to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h is not a usage error
		}
		return 2
	}
	switch {
	case *nnz < 1:
		fmt.Fprintf(stderr, "pastaverify: -nnz %d: want at least one non-zero per tensor\n", *nnz)
		return 2
	case !(*tol > 0) || math.IsInf(*tol, 1):
		fmt.Fprintf(stderr, "pastaverify: -tol %v: want a finite tolerance > 0\n", *tol)
		return 2
	}
	if *trace != "" {
		obs.Enable(obs.New())
	}

	match := func(v *kernelreg.Variant) bool {
		return containsFold(v.Kernel.String(), *kernelF) &&
			containsFold(v.Format.String(), *formatF) &&
			containsFold(v.Backend.String(), *backF)
	}
	var selected int
	for _, v := range kernelreg.All() {
		if match(v) {
			selected++
		}
	}
	if selected == 0 {
		fmt.Fprintf(stderr, "pastaverify: no registered variant matches -kernel=%q -format=%q -backend=%q\n",
			*kernelF, *formatF, *backF)
		return 1
	}
	fmt.Fprintf(stdout, "verifying %d of %d registered variants\n\n", selected, len(kernelreg.All()))

	cases, err := buildCases(stdout, *nnz, *seed, *file)
	if err != nil {
		fmt.Fprintln(stderr, "pastaverify:", err)
		return 1
	}
	vf := &verifier{w: stdout, match: match, tol: *tol, timeout: *timeout}
	for _, c := range cases {
		fmt.Fprintf(stdout, "== %s: %v\n", c.name, c.x)
		if err := vf.runCase(c.name, c.x); err != nil {
			fmt.Fprintln(stderr, "pastaverify:", err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	vf.flushTrace(stderr, *trace)
	if vf.failures > 0 {
		fmt.Fprintf(stdout, "FAILED: %d checks exceeded tolerance\n", vf.failures)
		return 1
	}
	fmt.Fprintln(stdout, "all implementations agree")
	return 0
}

type verifyCase struct {
	name string
	x    *tensor.COO
}

// buildCases generates the tensors across the density spectrum, plus the
// user's file when one is named.
func buildCases(stdout io.Writer, nnz int, seed int64, file string) ([]verifyCase, error) {
	rng := rand.New(rand.NewSource(seed))
	kron, err := gen.Kronecker([]tensor.Index{1 << 12, 1 << 12, 1 << 12}, nnz, nil, rng)
	if err != nil {
		return nil, err
	}
	pl, err := gen.PowerLaw(gen.PowerLawConfig{
		Dims: []tensor.Index{20000, 20000, 48}, SparseModes: []int{0, 1}, NNZ: nnz,
	}, rng)
	if err != nil {
		return nil, err
	}
	pl4, err := gen.PowerLaw(gen.PowerLawConfig{
		Dims: []tensor.Index{4000, 4000, 24, 16}, SparseModes: []int{0, 1}, NNZ: nnz,
	}, rng)
	if err != nil {
		return nil, err
	}
	cases := []verifyCase{
		{"kronecker-3d", kron},
		{"powerlaw-3d", pl},
		{"powerlaw-4d", pl4},
		{"uniform-dense-ish", tensor.RandomCOO([]tensor.Index{96, 96, 96}, nnz, rng)},
	}
	if file != "" {
		x, stats, err := tensor.ReadFileStats(file)
		if err != nil {
			return nil, err
		}
		if err := x.Validate(); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "loaded %v\n", stats)
		cases = append(cases, verifyCase{file, x})
	}
	return cases, nil
}

// verifier runs the cases and counts the checks that fail.
type verifier struct {
	w        io.Writer
	match    func(*kernelreg.Variant) bool
	tol      float64
	timeout  time.Duration
	failures int
}

// flushTrace exports the verification sweep's spans; an unwritable
// trace counts as a failure so CI cannot ship a missing artifact.
func (vf *verifier) flushTrace(stderr io.Writer, path string) {
	if path == "" {
		return
	}
	tr := obs.Disable()
	if tr == nil {
		return
	}
	spans := tr.Spans()
	if err := obs.WriteChromeTraceFile(path, spans); err != nil {
		fmt.Fprintln(stderr, "pastaverify: -trace:", err)
		vf.failures++
		return
	}
	fmt.Fprintf(vf.w, "(%d spans written to %s)\n", len(spans), path)
}

// containsFold reports whether s contains the filter, ignoring case; an
// empty filter matches everything.
func containsFold(s, filter string) bool {
	return filter == "" || strings.Contains(strings.ToLower(s), strings.ToLower(filter))
}

// runCase executes one tensor's cross-validation under resilience
// containment: a panic or a blown deadline anywhere in the case counts
// as a verification failure instead of killing the whole self-check. It
// returns an error only when the abandoned case does not settle.
func (vf *verifier) runCase(name string, x *tensor.COO) error {
	ctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if vf.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, vf.timeout)
	}
	defer cancel()
	// The workbench is per-case: operands are derived from the tensor and
	// cached, so every variant of a kernel sees identical inputs. Variant
	// Run/Serial hooks thread ctx through both substrates themselves, so
	// a timed-out case settles cooperatively.
	wb := kernelreg.NewWorkbench(x, kernelreg.DefaultConfig())
	err, settled := resilience.Exec(ctx, resilience.Label{Kernel: "verify", Format: name, Backend: "host"},
		func(ctx context.Context) error {
			vf.verifyRegistry(ctx, x, wb)
			return nil
		})
	if err != nil {
		vf.failures++
		fmt.Fprintf(vf.w, "  case FAILED: %v\n", err)
	}
	// The abandoned goroutine shares the workbench caches with nothing
	// else, but it must settle before the process exits its loop.
	select {
	case <-settled:
		return nil
	case <-time.After(30 * time.Second):
		return errors.New("abandoned case still running after grace period; aborting")
	}
}

// verifyRegistry sweeps the registry: each selected variant, on each of
// its modes, is prepared, run, checked finite, and compared against the
// cached serial COO reference for its kernel.
func (vf *verifier) verifyRegistry(ctx context.Context, x *tensor.COO, wb *kernelreg.Workbench) {
	for _, v := range kernelreg.All() {
		if !vf.match(v) {
			continue
		}
		for mode := 0; mode < v.Modes(x); mode++ {
			dev, err := v.Verify(ctx, wb, mode)
			need(err)
			check := "vs-serial-ref"
			if v.Caps.ModeDependent {
				check = fmt.Sprintf("vs-serial-ref m%d", mode)
			}
			vf.report(v.String(), check, dev)
		}
	}
}

func (vf *verifier) report(variant, check string, dev float64) {
	status := "ok"
	if !(dev <= vf.tol) {
		status = "FAIL"
		vf.failures++
	}
	fmt.Fprintf(vf.w, "  %-22s %-18s max rel dev %.2e  [%s]\n", variant, check, dev, status)
}

// need aborts the current verification case by panicking; runCase's
// resilience containment converts it into a counted failure instead of
// a process exit.
func need(err error) {
	if err != nil {
		panic(err)
	}
}
