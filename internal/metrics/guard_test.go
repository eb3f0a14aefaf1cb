package metrics

import (
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/resilience"
	"repro/internal/roofline"
)

// TestMeasureHostGuardedClean runs every kernel × format through the
// resilience-guarded path with no faults armed: results must match the
// plain path's shape and every trial must report "ok".
func TestMeasureHostGuardedClean(t *testing.T) {
	host := platform.Host()
	x := testTensor(7)
	cfg := quickConfig()
	cfg.Timeout = 30 * time.Second
	cfg.Fallback = true
	for _, k := range roofline.Kernels {
		for _, f := range []roofline.Format{roofline.COO, roofline.HiCOO} {
			r, err := MeasureHost(&host, x, k, f, cfg)
			if err != nil {
				t.Fatalf("%v/%v: %v", k, f, err)
			}
			if r.GFLOPS <= 0 || r.TimeSec <= 0 {
				t.Fatalf("%v/%v: degenerate guarded result %+v", k, f, r)
			}
			if r.Outcome != "ok" {
				t.Fatalf("%v/%v: clean guarded run reported outcome %q (%v)", k, f, r.Outcome, r.Outcomes)
			}
		}
	}
}

// TestMeasureHostChaosSurvives injects random faults into host
// measurement: whatever the injector does, MeasureHost must neither
// crash nor hang, and any completed result must carry outcome counts.
// An injected stall outlives the trial deadline (2 × Timeout), so the
// short deadline keeps the test fast and the seeded fault sequence
// must reach the deadline path at least once.
func TestMeasureHostChaosSurvives(t *testing.T) {
	host := platform.Host()
	x := testTensor(8)
	cfg := quickConfig()
	cfg.Runs = 3
	cfg.Timeout = 50 * time.Millisecond
	cfg.Fallback = true
	cfg.ChaosSeed = 42
	timeouts := 0
	for _, f := range []roofline.Format{roofline.COO, roofline.HiCOO} {
		r, err := MeasureHost(&host, x, roofline.Mttkrp, f, cfg)
		if err != nil {
			// A persistent fault may exhaust every run; that is a valid
			// contained outcome, not a crash.
			t.Logf("Mttkrp/%v: measurement failed under chaos (contained): %v", f, err)
			continue
		}
		if len(r.Outcomes) == 0 || r.Outcome == "" {
			t.Fatalf("Mttkrp/%v: guarded chaos run reported no outcomes: %+v", f, r)
		}
		timeouts += r.Outcomes[resilience.OutcomeTimeout.String()]
	}
	if timeouts == 0 {
		t.Fatal("no trial reached the deadline: the chaos run no longer exercises the timeout path")
	}
}

func TestJoinOutcomes(t *testing.T) {
	cases := []struct {
		in   map[string]int
		want string
	}{
		{nil, ""},
		{map[string]int{"ok": 12}, "ok"},
		{map[string]int{"ok": 10, "fell-back:serial": 2}, "fell-back:serial=2,ok=10"},
		{map[string]int{"timeout": 1}, "timeout=1"},
	}
	for _, c := range cases {
		if got := joinOutcomes(c.in); got != c.want {
			t.Errorf("joinOutcomes(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}
