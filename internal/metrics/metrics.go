// Package metrics is the measurement harness of the benchmark suite: it
// runs a kernel in a given format on the host (wall-clock timed, averaged
// over 5 runs and over all tensor modes, as §5.1.2 prescribes) or
// evaluates the analytic model for one of the paper's platforms, and
// reports GFLOPS against the Roofline bound. Which implementations exist
// — and how each is prepared, run, and modeled — comes from the
// kernelreg registry; this package only times and aggregates.
package metrics

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/hicoo"
	"repro/internal/kernelreg"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// Source tells whether a Result was measured on the host or predicted by
// the analytic model.
type Source int

const (
	// Measured results come from host wall-clock timing.
	Measured Source = iota
	// Modeled results come from the perfmodel prediction.
	Modeled
)

func (s Source) String() string {
	if s == Modeled {
		return "modeled"
	}
	return "measured"
}

// Config holds the experiment parameters of §5.1.2.
type Config struct {
	// R is the factor-matrix column count (paper: 16).
	R int
	// BlockBits is log2 of the HiCOO block size (paper: B=128 → 7).
	BlockBits uint8
	// Runs is the number of timed repetitions averaged (paper: 5).
	Runs int
	// Sched is the OpenMP scheduling policy for host measurement.
	Sched parallel.Options
	// Timeout bounds each guarded measurement trial (all retries and
	// fallback rungs); zero disables deadlines.
	Timeout time.Duration
	// Fallback adds a serial rung below the variant's backend so a
	// faulting run degrades to a slower, correct result instead of
	// failing the measurement.
	Fallback bool
	// ChaosSeed, when non-zero, installs the deterministic fault
	// injector for the duration of the measurement, arming a random
	// fault per trial from this seed (fault drills for the ladder).
	ChaosSeed int64
}

// DefaultConfig returns the paper's experiment configuration.
func DefaultConfig() Config {
	return Config{
		R:         core.DefaultR,
		BlockBits: hicoo.DefaultBlockBits,
		Runs:      5,
		Sched:     parallel.Options{Schedule: parallel.Dynamic},
	}
}

// regConfig maps the experiment parameters onto a workbench config.
func regConfig(cfg Config) kernelreg.Config {
	return kernelreg.Config{R: cfg.R, BlockBits: cfg.BlockBits, Sched: cfg.Sched}
}

// Result is one bar of Figures 4-7: a (tensor, kernel, format, platform)
// performance point.
type Result struct {
	TensorID   string
	TensorName string
	Kernel     roofline.Kernel
	Format     roofline.Format
	Platform   string
	Source     Source
	// GFLOPS is flops (Table 1 Work) divided by the mode-and-run-averaged
	// execution time.
	GFLOPS float64
	// Roofline is the attainable bound from the per-tensor accurate OI.
	Roofline float64
	// Efficiency is GFLOPS / Roofline.
	Efficiency float64
	// TimeSec is the averaged per-execution time.
	TimeSec float64
	// Flops is the per-execution floating point work.
	Flops int64
	// Strategy summarizes the reduction strategies the kernel's OMP path
	// resolved to ("owner", "atomic", "privatized") on measured runs of
	// the reduction kernels: the single value when every mode agreed,
	// otherwise the comma-joined per-mode list (e.g.
	// "atomic,privatized,atomic"); empty otherwise.
	Strategy string
	// Strategies records the strategy each mode resolved to, in mode
	// order. The adaptive selector may pick differently per mode, so
	// ablation output must not pretend the last mode's choice covered
	// the whole measurement.
	Strategies []string
	// Outcome summarizes how the guarded trials ended ("ok", or e.g.
	// "fell-back:serial=2,ok=10"); empty when resilience guarding is
	// off (no Timeout, Fallback, or ChaosSeed configured).
	Outcome string
	// Outcomes counts trials per resilience outcome across all modes,
	// runs, and warm-ups of this measurement; nil when guarding is off.
	Outcomes map[string]int
	// TrialSec lists every timed trial's wall-clock seconds in execution
	// order (cfg.Runs entries per mode, warm-ups excluded), so consumers
	// can compute variance instead of trusting the mean. Nil-valued
	// fields stay absent from JSON, keeping pre-existing output
	// byte-compatible.
	TrialSec []float64 `json:"TrialSec,omitempty"`
	// Counters is the obs counter delta attributable to this measurement
	// (preparation included); nil unless obs counting was enabled.
	Counters map[string]int64 `json:"Counters,omitempty"`
}

// MeasureHost times one kernel × format on the host CPU, averaging over
// all modes (for the mode-dependent kernels) and cfg.Runs repetitions
// per mode, excluding the preprocessing stage exactly as the paper does.
// The implementation comes from the kernelreg registry (the OMP variant
// when one is registered, else the simulated-device variant — how the
// GPU-only fCOO format gets host rows); an unregistered (kernel, format)
// returns the typed resilience.ErrUnsupported taxonomy error. When the
// Config enables a Timeout, Fallback, or ChaosSeed, every run executes
// as a resilience trial: panics are contained, the deadline is enforced,
// and a faulting run may degrade to the serial rung; per-trial outcomes
// aggregate into Result.Outcome.
func MeasureHost(host *platform.Platform, x *tensor.COO, k roofline.Kernel, f roofline.Format, cfg Config) (Result, error) {
	res := Result{
		Kernel: k, Format: f, Platform: host.Name, Source: Measured,
	}
	v, err := kernelreg.HostVariant(k, f)
	if err != nil {
		return res, err
	}
	wb := kernelreg.NewWorkbench(x, regConfig(cfg))
	g := newGuard(cfg)
	defer g.close()
	variant := v.String()
	counting := obs.Counting()
	var ctrBefore map[string]int64
	if counting {
		ctrBefore = obs.CounterSnapshot()
	}
	var (
		totalTime  float64
		totalFlops int64
		execs      int
	)
	for mode := 0; mode < v.Modes(x); mode++ {
		inst, err := v.Prepare(wb, mode)
		if err != nil {
			return res, err
		}
		trial := func() (string, error) { return "", inst.Run(context.Background()) }
		if g != nil {
			trial = g.trial(inst, v.Label())
		}
		mean, secs, err := timeTrials(variant, cfg.Runs, trial)
		if err != nil {
			return res, err
		}
		totalTime += mean
		res.TrialSec = append(res.TrialSec, secs...)
		totalFlops += inst.Flops
		execs++
		if inst.Strategy != nil {
			res.Strategies = append(res.Strategies, inst.Strategy())
		}
	}

	if g != nil {
		res.Outcomes = g.outcomes
		res.Outcome = joinOutcomes(g.outcomes)
	}
	res.TimeSec = totalTime / float64(execs)
	res.Flops = totalFlops / int64(execs)
	if res.TimeSec > 0 {
		res.GFLOPS = float64(res.Flops) / res.TimeSec / 1e9
	}
	res.Strategy = joinStrategies(res.Strategies)
	res.Roofline, res.Efficiency = rooflineBound(host, x, v, cfg, res.GFLOPS)
	if counting {
		res.Counters = obs.DiffSnapshot(ctrBefore, obs.CounterSnapshot())
	}
	return res, nil
}

// Time is the suite's one timing loop, the protocol of §5.1.2: one
// warm-up run, then runs timed runs, each inside one "metrics.trial" span
// labelled variant. It returns the mean seconds of the timed runs and
// each one's wall-clock seconds in execution order. An error aborts the
// loop and is returned.
func Time(variant string, runs int, run func() error) (mean float64, trialSec []float64, err error) {
	return timeTrials(variant, runs, func() (string, error) { return "", run() })
}

// timeTrials is the loop behind Time and MeasureHost. A trial reports its
// outcome and error. An unguarded trial names no outcome, and its error
// aborts the loop. A guarded trial names its outcome (attached to the
// span and already counted by the guard), and a failed one is left out
// of the mean: the loop fails only when no timed trial succeeded.
func timeTrials(variant string, runs int, trial func() (string, error)) (float64, []float64, error) {
	var (
		total   float64
		secs    []float64
		lastErr error
	)
	for i := 0; i <= runs; i++ {
		sp := obs.Begin("metrics.trial", variant, obs.PhaseTrial, -1)
		start := time.Now()
		outcome, err := trial()
		elapsed := time.Since(start).Seconds()
		if outcome != "" {
			sp.Attr("outcome", outcome)
		}
		sp.End()
		switch {
		case err != nil && outcome == "":
			return 0, nil, err
		case err != nil:
			lastErr = err
		case i > 0: // the warm-up stays out of the mean
			total += elapsed
			secs = append(secs, elapsed)
		}
	}
	if len(secs) == 0 {
		if lastErr == nil {
			lastErr = fmt.Errorf("metrics: no timed run of %s succeeded", variant)
		}
		return 0, nil, lastErr
	}
	return total / float64(len(secs)), secs, nil
}

// joinStrategies collapses per-mode strategies for display: the single
// value when every mode agreed, otherwise the comma-joined list.
func joinStrategies(s []string) string {
	if len(s) == 0 {
		return ""
	}
	for _, v := range s[1:] {
		if v != s[0] {
			return strings.Join(s, ",")
		}
	}
	return s[0]
}

// Workloads precomputes the per-mode workload statistics of a tensor so a
// sweep over kernels, formats, and platforms measures each (tensor, mode)
// only once.
func Workloads(x *tensor.COO, cfg Config) []perfmodel.Workload {
	return perfmodel.FromTensorAllModes(x, cfg.R, cfg.BlockBits)
}

// Model evaluates the analytic model for one kernel × format on a
// platform, averaging the per-mode predictions like the measurement path.
func Model(p *platform.Platform, x *tensor.COO, k roofline.Kernel, f roofline.Format, cfg Config) Result {
	return ModelFromWorkloads(p, Workloads(x, cfg), k, f)
}

// ModelFromWorkloads is Model with precomputed per-mode workloads.
func ModelFromWorkloads(p *platform.Platform, ws []perfmodel.Workload, k roofline.Kernel, f roofline.Format) Result {
	res := Result{
		Kernel: k, Format: f, Platform: p.Name, Source: Modeled,
	}
	modes := len(ws)
	if !kernelreg.ModeDependent(k) {
		modes = 1
	}
	var totalTime, oiSum float64
	var totalFlops int64
	for mode := 0; mode < modes; mode++ {
		b := perfmodel.Predict(p, k, f, ws[mode])
		totalTime += b.TimeSec
		totalFlops += b.Flops
		oiSum += b.OI
	}
	res.TimeSec = totalTime / float64(modes)
	res.Flops = totalFlops / int64(modes)
	if res.TimeSec > 0 {
		res.GFLOPS = float64(res.Flops) / res.TimeSec / 1e9
	}
	oi := oiSum / float64(modes)
	res.Roofline = roofline.Attainable(p, oi)
	res.Efficiency = roofline.Efficiency(p, oi, res.GFLOPS)
	return res
}

// rooflineBound computes the per-tensor accurate-OI Roofline bound from
// the variant's model hook, averaging the OI across modes for the
// mode-dependent kernels.
func rooflineBound(p *platform.Platform, x *tensor.COO, v *kernelreg.Variant, cfg Config, gflops float64) (bound, eff float64) {
	ws := Workloads(x, cfg)
	modes := v.Modes(x)
	var oiSum float64
	for mode := 0; mode < modes; mode++ {
		oiSum += v.OI(ws[mode].Params)
	}
	oi := oiSum / float64(modes)
	return roofline.Attainable(p, oi), roofline.Efficiency(p, oi, gflops)
}
