package metrics

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/kernelreg"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// guard wraps measured runs in the resilience runner when the Config
// asks for deadlines, fallback, or fault injection. A nil *guard is the
// plain fast path; all methods tolerate it.
type guard struct {
	cfg      Config
	runner   *resilience.Runner
	inj      *resilience.Injector
	outcomes map[string]int
}

// newGuard returns nil when cfg enables no resilience feature.
func newGuard(cfg Config) *guard {
	if cfg.Timeout <= 0 && !cfg.Fallback && cfg.ChaosSeed == 0 {
		return nil
	}
	g := &guard{cfg: cfg, runner: &resilience.Runner{}, outcomes: make(map[string]int)}
	if cfg.ChaosSeed != 0 {
		g.inj = resilience.NewInjector(cfg.ChaosSeed)
		g.inj.Install()
	}
	return g
}

// close detaches the process-wide injector hook.
func (g *guard) close() {
	if g != nil && g.inj != nil {
		g.inj.Uninstall()
	}
}

// stallFor is the injected stall length: past the trial deadline when
// one is set, so FaultStall actually exercises the timeout path.
func (g *guard) stallFor() time.Duration {
	if g.cfg.Timeout > 0 {
		return 2 * g.cfg.Timeout
	}
	return 200 * time.Millisecond
}

// measure runs one warm-up trial plus `runs` timed trials of a prepared
// registry instance through the degradation ladder, recording each
// trial's outcome, and returns the mean seconds of the successful timed
// trials plus each such trial's individual wall-clock seconds.
func (g *guard) measure(inst *kernelreg.Instance, label resilience.Label, runs int) (float64, []float64, error) {
	t := inst.Trial(label, g.cfg.Timeout, g.cfg.Fallback)
	var (
		total   float64
		trials  []float64
		lastErr error
	)
	for i := 0; i <= runs; i++ {
		armCtx, cancel := context.WithCancel(context.Background())
		if g.inj != nil {
			g.inj.ArmRandom(armCtx, 32, g.stallFor())
		}
		sp := obs.Begin("metrics.trial", label.String(), obs.PhaseTrial, -1)
		start := time.Now()
		rep := g.runner.Do(context.Background(), t)
		elapsed := time.Since(start).Seconds()
		sp.Attr("outcome", rep.String())
		sp.End()
		cancel() // unblocks any injected stall the trial abandoned
		if rep.Settled != nil {
			// The straggler must stop touching the plan's output buffer
			// before the next trial reuses it.
			<-rep.Settled
		}
		g.outcomes[rep.String()]++
		if rep.Err != nil {
			lastErr = rep.Err
			continue
		}
		if i > 0 { // the warm-up stays out of the average, like the plain path
			total += elapsed
			trials = append(trials, elapsed)
		}
	}
	if len(trials) == 0 {
		if lastErr == nil {
			lastErr = fmt.Errorf("metrics: no timed run of %s succeeded", label)
		}
		return 0, nil, lastErr
	}
	return total / float64(len(trials)), trials, nil
}

// joinOutcomes renders the per-outcome trial counts for harness tables:
// "ok" when every trial was clean, otherwise e.g.
// "fell-back:serial=2,ok=10".
func joinOutcomes(m map[string]int) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) == 1 && keys[0] == resilience.OutcomeOK.String() {
		return keys[0]
	}
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, ",")
}
