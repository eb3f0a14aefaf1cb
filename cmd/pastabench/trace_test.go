package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// TestTraceExportAcceptance is the issue's acceptance check for -trace:
// a traced measurement sweep of all five kernels must produce a Chrome
// trace_event file that parses, validates (complete X events or matched
// B/E pairs, monotonic per-lane timestamps), and names every kernel.
// It drives the same startObs/finishObs machinery the pastabench flags
// use, with the measurement loop reduced to one small tensor so the
// test stays fast.
func TestTraceExportAcceptance(t *testing.T) {
	dir := t.TempDir()
	o := options{
		nnz: 2000, seed: 1, runs: 1, r: 4, blockBits: 7,
		trace:    filepath.Join(dir, "trace.json"),
		counters: true,
	}
	if err := startObs(o); err != nil {
		t.Fatal(err)
	}
	defer func() {
		obs.Disable()
		obs.EnableCounters(false)
		session = nil
	}()

	p, err := platform.ByName("Bluesky")
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandomCOO([]tensor.Index{48, 48, 48}, 2000, rand.New(rand.NewSource(1)))
	cfg := benchConfig(o)
	for _, k := range roofline.Kernels {
		if _, err := metrics.MeasureHost(p, x, k, roofline.COO, cfg); err != nil {
			t.Fatalf("measure %s: %v", k, err)
		}
	}
	if code := finishObs(); code != 0 {
		t.Fatalf("finishObs exit code = %d", code)
	}

	data, err := os.ReadFile(o.trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(data); err != nil {
		t.Fatalf("exported trace is malformed: %v", err)
	}
	evs, err := obs.ParseChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("trace holds no events")
	}

	// Every kernel must appear as the variant of at least one span, and
	// per-(pid,tid) lane timestamps must never run backwards.
	seen := map[string]bool{}
	lastTs := map[[2]int]float64{}
	for _, ev := range evs {
		if v := ev.Args["variant"]; v != "" {
			seen[strings.SplitN(v, "/", 2)[0]] = true
		}
		lane := [2]int{ev.Pid, ev.Tid}
		if ev.Ts < lastTs[lane] {
			t.Fatalf("timestamps run backwards in lane %v: %v after %v", lane, ev.Ts, lastTs[lane])
		}
		lastTs[lane] = ev.Ts
		if ev.Ph != "X" && ev.Ph != "i" && ev.Ph != "B" && ev.Ph != "E" {
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	for _, k := range roofline.Kernels {
		if !seen[k.String()] {
			t.Fatalf("kernel %s missing from trace (saw %v)", k, seen)
		}
	}
}
