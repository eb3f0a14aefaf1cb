package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"

	"repro/bench/record"
)

// Spot-check metrics: the paired-reference ratio of the COO and HiCOO
// Mttkrp cells and the raw rate of the COO ones, on the workload where
// machine drift was measured.
const (
	spotWorkload = "skewed3d"
	spotRatio    = "mttkrp_x"
	spotRaw      = "core.mttkrp.coo_gflops"
)

// aaFile is results/aa.json: the same commit measured twice the way the
// driver measures it (sets A and B, each one run per seed, taken
// alternately), compared with the tool and the bounds any later change
// is compared with. Each row carries both sets' run-to-run spread,
// (Q3 - Q1) / median, which the driver holds against the bound.
type aaFile struct {
	Schema string       `json:"schema"`
	Note   string       `json:"note"`
	Rows   []record.Row `json:"rows"`
	// SpotCheck tests the method itself: over runs of one commit a
	// paired-reference ratio must spread less than the raw rate of the
	// same cells.
	SpotCheck spotCheck `json:"spotCheck"`
}

type spotCheck struct {
	Workload    string  `json:"workload"`
	Ratio       string  `json:"ratio"`
	RatioSpread float64 `json:"ratioSpread"` // over the untraced runs of both sets
	Raw         string  `json:"raw"`
	RawSpread   float64 `json:"rawSpread"` // over the traced runs
	Holds       bool    `json:"holds"`
}

// runAll measures every workload on `seeds` seeds (base, base+1, ...),
// each run a child process of this binary as under the driver. Per seed
// it makes an untraced run for set A, one for set B and a traced run,
// each pass over the workloads in the opposite order of the one before.
// It writes out/BENCH_0.json, the first point of the trajectory, and
// out/aa.json.
func runAll(seeds int, baseSeed int64, seconds float64, out string) error {
	if seeds < 2 {
		return fmt.Errorf("-all needs at least 2 runs per set, got %d", seeds)
	}
	if _, err := record.Specs("BENCHMARK.json"); err != nil {
		return err // fail before the long part, not after it
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	file := record.File{
		Schema: record.Schema, NProc: runtime.NumCPU(), Threads: 1, // of the end-to-end runs
		GoVersion: runtime.Version(), RunSeconds: seconds,
	}
	pass := 0
	for i := 0; i < seeds; i++ {
		seed := baseSeed + int64(i)
		for _, p := range []struct {
			run    int
			traced bool
		}{{2 * i, false}, {2*i + 1, false}, {i, true}} {
			order := append([]workload(nil), workloads...)
			if pass%2 == 1 {
				for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
					order[l], order[r] = order[r], order[l]
				}
			}
			pass++
			for _, w := range order {
				r, err := runChild(exe, w, seed, seconds, p.traced)
				if err != nil {
					return fmt.Errorf("seed %d of %s: %w", seed, w.Name, err)
				}
				r.Run = p.run
				fmt.Printf("%-10s seed %d traced %-5v: %d attempted, %d failed\n", w.Name, seed, p.traced, r.Attempted, r.Failed)
				file.Runs = append(file.Runs, r)
			}
		}
	}

	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if err := file.Write(filepath.Join(out, "BENCH_0.json")); err != nil {
		return err
	}
	return writeAA(&file, out)
}

// runChild runs one workload once in a fresh process and reads the
// result line it ends with.
func runChild(exe string, w workload, seed int64, seconds float64, traced bool) (record.Run, error) {
	run := record.Run{Workload: w.Name, Seed: seed, Traced: traced, Metrics: map[string]float64{}}
	trace, specs := "0", endToEnd
	if traced {
		trace, specs = "1", perLayer
	}
	cmd := exec.Command(exe, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return run, fmt.Errorf("%w\n%s", err, stdout)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return run, fmt.Errorf("last line is not a result: %w", err)
	}
	run.Attempted, run.Failed = res.Attempted, res.Failed
	for _, m := range specs {
		mv, ok := res.Metrics[m.Name]
		if !ok {
			return run, fmt.Errorf("no %s printed", m.Name)
		}
		run.Metrics[m.Name] = mv.Value
	}
	return run, nil
}

// writeAA derives aa.json from one results file: the even untraced runs
// against the odd ones under BENCHMARK.json's bounds, and the spot
// check.
func writeAA(file *record.File, out string) error {
	specs, err := record.Specs("BENCHMARK.json")
	if err != nil {
		return err
	}
	var a, b []record.Run
	for _, r := range file.Runs {
		switch {
		case r.Traced:
		case r.Run%2 == 0:
			a = append(a, r)
		default:
			b = append(b, r)
		}
	}
	_, ratioMed, _ := record.Quartiles(record.Values(file.Runs, spotWorkload, spotRatio))
	_, rawMed, _ := record.Quartiles(record.Values(file.Runs, spotWorkload, spotRaw))
	spread := func(metric string) float64 {
		q1, med, q3 := record.Quartiles(record.Values(file.Runs, spotWorkload, metric))
		return safeDiv(q3-q1, med)
	}
	aa := aaFile{
		Schema: "pasta-bench-aa/v2",
		Note: fmt.Sprintf("A = even runs, B = odd runs of one commit; runs 2i and 2i+1 share seed i; %d runs per set and workload, taken alternately",
			len(a)/len(workloads)),
		Rows: record.Compare(a, b, specs),
		SpotCheck: spotCheck{Workload: spotWorkload, Ratio: spotRatio, RatioSpread: spread(spotRatio),
			Raw: spotRaw, RawSpread: spread(spotRaw)},
	}
	aa.SpotCheck.Holds = ratioMed > 0 && rawMed > 0 && aa.SpotCheck.RatioSpread < aa.SpotCheck.RawSpread
	fmt.Print(record.Format(aa.Rows))
	fmt.Printf("spot check on %s: run-to-run spread of %s %.2f%% (median %.4g), of %s %.2f%% (median %.4g): holds=%v\n",
		spotWorkload, spotRatio, 100*aa.SpotCheck.RatioSpread, ratioMed, spotRaw, 100*aa.SpotCheck.RawSpread, rawMed, aa.SpotCheck.Holds)
	return record.Write(filepath.Join(out, "aa.json"), aa)
}
