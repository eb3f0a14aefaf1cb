package kernelreg

import (
	"context"
	"time"

	"repro/internal/resilience"
)

// Instance is one prepared, executable unit of a variant on a workbench
// mode. Run and Serial are alternative rungs over the same logical
// computation; Check and Output always reflect whichever rung wrote
// last, so a degradation ladder can validate exactly the buffer it is
// about to report.
type Instance struct {
	// Flops is the Table 1 work of one execution (plan FlopCount).
	Flops int64
	// Run executes the variant's native backend under ctx (cooperative
	// cancellation via parallel.Options.Ctx / gpusim.Device.SetContext).
	Run func(ctx context.Context) error
	// Serial is the fallback rung: the plan's own sequential execution
	// (or the deterministic tile stream), or the serial COO reference
	// when Caps.SerialRef is set.
	Serial func(ctx context.Context) error
	// Check scans the current output for non-finite values.
	Check func() error
	// Strategy reports the parallel decomposition of Run
	// (StrategyAware variants); nil otherwise.
	Strategy func() string
	// out yields the current output object for Output()/Check.
	out func() any
}

// Output returns the canonical form of the instance's current output.
func (i *Instance) Output() Canon { return canonOf(i.out()) }

// SerialRung is the ladder name of a trial's fallback rung; it has a
// circuit breaker of its own beside the registered backends'.
const SerialRung = "serial"

// Trial is the guarded trial of the instance under label: the native
// rung on label's backend, then — when fallback is set and the instance
// has one — the serial rung; one retry after 1 ms, Check validating
// whichever rung wrote last, timeout bounding the whole trial (0: none).
func (i *Instance) Trial(label resilience.Label, timeout time.Duration, fallback bool) resilience.Trial {
	t := resilience.Trial{
		Label:   label,
		Timeout: timeout,
		Retries: 1,
		Backoff: time.Millisecond,
		Rungs:   []resilience.Rung{{Backend: label.Backend, Exec: i.Run}},
		Check:   i.Check,
	}
	if fallback && i.Serial != nil {
		t.Rungs = append(t.Rungs, resilience.Rung{Backend: SerialRung, Exec: i.Serial})
	}
	return t
}
