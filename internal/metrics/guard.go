package metrics

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/kernelreg"
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

// trial returns one guarded trial of a prepared registry instance for
// the timing loop: it arms the injector, runs the instance through the
// degradation ladder, waits for any abandoned attempt to settle, and
// counts the outcome, which it reports with the trial's error.
func (g *guard) trial(inst *kernelreg.Instance, label resilience.Label) func() (string, error) {
	t := inst.Trial(label, g.cfg.Timeout, g.cfg.Fallback)
	return func() (string, error) {
		armCtx, cancel := context.WithCancel(context.Background())
		if g.inj != nil {
			g.inj.ArmRandom(armCtx, 32, g.stallFor())
		}
		rep := g.runner.Do(context.Background(), t)
		cancel() // unblocks any injected stall the trial abandoned
		if rep.Settled != nil {
			// The straggler must stop touching the plan's output buffer
			// before the next trial reuses it.
			<-rep.Settled
		}
		g.outcomes[rep.String()]++
		return rep.String(), rep.Err
	}
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
