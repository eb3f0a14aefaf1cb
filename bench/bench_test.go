package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/kernelreg"
	"repro/internal/obs"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// Every frozen reference must agree with the registry's own ground truth
// on order-3 and order-4 tensors: the ratio metrics are only worth
// printing if their denominators compute the same thing.
func TestFrozenReferencesMatchWorkbenchReference(t *testing.T) {
	for _, dims := range [][]tensor.Index{{11, 7, 5}, {6, 5, 4, 3}} {
		x := tensor.RandomCOO(dims, 90, rand.New(rand.NewSource(3)))
		wb := kernelreg.NewWorkbench(x, kernelreg.DefaultConfig())
		d := newRefData(x, wb, 3)
		h := newHarness("test", nil)
		all := func(roofline.Kernel) bool { return false }
		d.verify(h, "ref", 1, all)
		d.verify(h, "ref", 3, all)
		if want := 2 * (2 + 3*len(dims)); h.attempted != want {
			t.Errorf("order %d: %d references checked, want %d", len(dims), h.attempted, want)
		}
		if h.failed != 0 {
			t.Errorf("order %d: %d references disagree: %v", len(dims), h.failed, h.firstErrs)
		}

		// The check must be able to fail: a reference computing with the
		// wrong operand has to be caught.
		d.vecs[0] = make([]float32, len(d.vecs[0]))
		h = newHarness("test", nil)
		d.verify(h, "ref", 3, all)
		if h.failed == 0 {
			t.Errorf("order %d: a Ttv reference fed a zero vector still verified", len(dims))
		}
	}
}

func TestRatios(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if median(nil) != 0 || summarize(nil).N != 0 {
		t.Error("an empty sample must summarise to zeros, not panic or NaN")
	}
	if got := ratios([]float64{2, 9, 5}, []float64{1, 3, 0}); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("ratios dropped or kept the wrong rounds: %v", got)
	}
	if got := sumRounds([]float64{1, 2, 3}, []float64{10, 20}); len(got) != 2 || got[1] != 22 {
		t.Errorf("sumRounds = %v, want [11 22]", got)
	}
	if safeDiv(1, 0) != 0 {
		t.Error("safeDiv by zero must be 0")
	}

	// The per-round ratio is (paired reference time / measured time),
	// with each cell's reference weighted.
	refc := &cell{name: "ref", t: []float64{2, 4, 6}}
	a := &cell{name: "a", group: "g", t: []float64{1, 1, 1}, pairs: []pairing{{refc, 1}}}
	b := &cell{name: "b", group: "g", t: []float64{1, 3, 2}, pairs: []pairing{{refc, 2}}}
	got := speedup(inGroup([]*cell{refc, a, b}, "g"))
	want := []float64{6.0 / 2, 12.0 / 4, 18.0 / 3}
	for r := range want {
		if math.Abs(got[r]-want[r]) > 1e-12 {
			t.Fatalf("speedup = %v, want %v", got, want)
		}
	}
}

// A ratio metric is built from quiet times: the mean of the fastest
// tenth of each cell's timed calls, so calls the host stretched do not
// move it.
func TestQuietRatio(t *testing.T) {
	if quiet(nil) != 0 {
		t.Error("no calls must give 0, not panic or NaN")
	}
	if got := quiet([]float64{5, 3, 9}); got != 3 {
		t.Errorf("quiet of fewer than ten calls = %v, want the fastest, 3", got)
	}
	calls := make([]float64, 40) // fastest tenth: 1, 2, 3, 4
	for i := range calls {
		calls[i] = float64(len(calls) - i)
	}
	if got := quiet(calls); got != 2.5 {
		t.Errorf("quiet of 40 calls = %v, want 2.5", got)
	}
	disturbed := append([]float64{400, 900}, calls...) // two stretched calls change nothing
	if got := quiet(disturbed); got != 2.5 {
		t.Errorf("quiet moved to %v with two slow calls added", got)
	}
	if calls[0] != 40 {
		t.Error("quiet reordered its argument")
	}

	refc := &cell{name: "ref", calls: []float64{4, 6, 5}}
	a := &cell{name: "a", group: "g", calls: []float64{2, 1}, pairs: []pairing{{refc, 1}}}
	b := &cell{name: "b", group: "g", calls: []float64{3, 7}, pairs: []pairing{{refc, 2}}}
	if got, want := quietRatio(inGroup([]*cell{refc, a, b}, "g")), (4.0+2*4.0)/(1+3); got != want {
		t.Errorf("quietRatio = %v, want %v", got, want)
	}
	if quietRatio(nil) != 0 {
		t.Error("an empty group must give 0")
	}
}

func TestCalibrateNeverReturnsLessThanOne(t *testing.T) {
	slow := func() error { time.Sleep(3 * time.Millisecond); return nil }
	if k := calibrate(slow, time.Millisecond); k != 1 {
		t.Errorf("a call longer than the floor got batch size %d, want 1", k)
	}
	if k := calibrate(func() error { return nil }, time.Millisecond); k < 1 || k > maxBatch {
		t.Errorf("a free call got batch size %d, want within [1, %d]", k, maxBatch)
	}
	if k := calibrate(func() error { return errors.New("boom") }, time.Millisecond); k < 1 {
		t.Errorf("a failing call got batch size %d, want >= 1", k)
	}
	calls := 0
	fast := func() error { calls++; time.Sleep(50 * time.Microsecond); return nil }
	if k := calibrate(fast, 2*time.Millisecond); k < 2 {
		t.Errorf("a 50us call against a 2ms floor got batch size %d, want a real batch", k)
	}
}

// BENCHMARK.json and the program must declare the same metrics and
// workloads: a name printed but not declared (or the reverse) makes the
// driver refuse the run.
func TestMetricSetMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkSpec := func(m metricSpec) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q is outside the contract's character set", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %q has better=%q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q is used twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the program prints %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		checkSpec(m)
		d := doc.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, d, m)
		}
		// ISSUE 12: a metric that does not repeat within a tenth is
		// demoted to per-layer, never given a wider bound. setup_s is a
		// raw time the driver's contract requires here, with "the
		// largest bound".
		limit := 0.10
		if m.Name == "setup_s" {
			limit = 0.25
		}
		if d.Bound <= 0 || d.Bound > limit {
			t.Errorf("end-to-end metric %s: bound %v outside (0, %v]", m.Name, d.Bound, limit)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program prints %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		checkSpec(m)
		if d := doc.PerLayer[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, d, m)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := doc.Workloads[i]; d.Name != w.Name || d.Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q / %q", i, d, w.Name, w.Why)
		}
	}
}

// One tiny workload through the whole program, both ways: every declared
// metric must come out finite, every operation must pass the correctness
// gate, and the trace must satisfy the repository's own validator.
func TestRunPrintsEveryDeclaredMetric(t *testing.T) {
	w := workload{Name: "tiny", Why: "test", Recipe: "nell2", NNZ: 400, Input: "tiled"}
	defer func(floor time.Duration) { batchFloor = floor }(batchFloor)
	batchFloor = 100 * time.Microsecond
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "tiny.trace.json")
	for _, c := range []struct {
		layers bool
		specs  []metricSpec
	}{{false, endToEnd}, {true, perLayer}} {
		res, err := run(w, 5, time.Millisecond, c.layers, traceFile, dir)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("layers=%v: correct=%v, %d of %d operations failed", c.layers, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(c.specs) {
			t.Errorf("layers=%v: %d metrics printed, %d declared", c.layers, len(res.Metrics), len(c.specs))
		}
		for _, m := range c.specs {
			v, ok := res.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("metric %s was not printed", m.Name)
			case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit:
				t.Errorf("metric %s = %v %s, want a finite value in %s", m.Name, v.Value, v.Unit, m.Unit)
			case !c.layers && v.Value <= 0:
				t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v.Value)
			}
		}
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(data); err != nil {
		t.Errorf("trace does not validate: %v", err)
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "tensors-*")); len(entries) != 0 {
		t.Errorf("run left generated files behind: %v", entries)
	}
}
