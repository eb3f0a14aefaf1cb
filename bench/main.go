// Command bench is the repository's benchmark: one run of one workload
// prints every end-to-end metric (untraced) or every per-layer metric
// (traced) by name with its unit, checks that the program's outputs are
// correct, and ends with one JSON line for the driver.
//
//	go run ./bench -workload skewed3d -seed 1 -seconds 20 -trace 0
//	go run ./bench -workload small3d -seed 1 -seconds 20 -trace 1
//	go run ./bench -all -runs 10        # results/BENCH_0.json + aa.json
//
// The method (rounds, paired frozen references, batching) is described
// in README.md; the metric names are declared in metrics.go and
// BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/roofline"
)

// setupPasses is how many times an untraced run repeats the whole set-up
// sequence; setup_s is the median, and each pass is followed by its share
// of the timed rounds.
const setupPasses = 3

// result is the last line of standard output, the driver's contract.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: skewed3d, regular4d or small3d")
		seed      = flag.Int64("seed", 1, "seed of the generated tensors")
		seconds   = flag.Float64("seconds", 20, "how long to measure")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		traceFile = flag.String("trace-file", "", "where a traced run writes its spans (default <scratch>/<workload>.trace.json)")
		scratch   = flag.String("scratch", filepath.Join(".bench_build", "scratch"), "directory for generated files")
		all       = flag.Bool("all", false, "run every workload on -runs seeds in alternating order and write the results files")
		runs      = flag.Int("runs", 10, "with -all: seeds per workload; each gets two untraced runs (sets A and B) and a traced one")
		out       = flag.String("out", filepath.Join("bench", "results"), "with -all: directory for BENCH_0.json and aa.json")
	)
	flag.Parse()
	if *all {
		if err := runAll(*runs, *seed, *seconds, *out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench -workload {skewed3d|regular4d|small3d} -seed N -seconds S -trace {0|1}")
		os.Exit(2)
	}
	if *traceFile == "" {
		*traceFile = filepath.Join(*scratch, w.Name+".trace.json")
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *traceFile, *scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload once. An error means the run could not be
// set up at all; failed operations and verification misses are counted
// in the result instead.
func run(w workload, seed int64, d time.Duration, layers bool, traceFile, scratch string) (*result, error) {
	nthreads := pinThreads(layers)
	fmt.Printf("workload %s seed %d: %s\n", w.Name, seed, w.Why)
	fmt.Printf("host: %d cpus, THREADS=%d (GOMAXPROCS, parallel workers, daemon clients), %s\n",
		runtime.NumCPU(), nthreads, runtime.Version())

	// Set-up, repeated so that setup_s is a median and the timed rounds
	// see more than one memory layout: where the allocator puts a
	// kernel's arrays moves its time by several per cent for the life of
	// the process, so the end-to-end run spends a third of its rounds
	// after each pass and pools every cell's calls. The last pass stays
	// up for the correctness gate.
	passes := setupPasses
	if layers {
		passes = 1
	}
	h := newHarness(w.Name, nil)
	var s *state
	var setups []setupTimes
	calls, perRound := map[string][]float64{}, map[string][]float64{} // of the passes already torn down, by cell
	for i := 0; i < passes; i++ {
		if s != nil {
			for _, c := range s.cells {
				calls[c.name] = append(calls[c.name], c.calls...)
				perRound[c.name] = append(perRound[c.name], c.t...)
			}
			s.close()
		}
		var st setupTimes
		var err error
		if s, st, err = setUp(w, seed, layers, scratch); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, st)
		h.cells = s.order
		if i < passes-1 {
			h.runFor(d / time.Duration(passes))
		}
	}
	defer s.close()
	sort.Slice(setups, func(i, j int) bool { return setups[i].total < setups[j].total })
	info := runInfo{setup: setups[len(setups)/2]}
	s.describe()

	s.verifyRefs(h, "ref", nthreads)
	if layers && nthreads > 1 {
		s.verifyRefs(h, "ref.serial", 1) // the single-thread baselines of the per-layer run
	}

	if !layers {
		h.runFor(d / time.Duration(passes))
		for _, c := range s.cells {
			c.calls = append(c.calls, calls[c.name]...)
			c.t = append(c.t, perRound[c.name]...)
		}
	} else {
		ert := roofline.RunERT(true)
		info.ertDRAM, info.ertPeak = ert.DRAMGBs, ert.PeakGFLOPS
		// Same cells twice: untraced rounds give the baseline round time,
		// traced rounds give every per-layer number.
		h.runFor(d / 2)
		info.untracedRoundS = h.roundS[false]
		for _, c := range s.cells {
			c.t, c.calls, c.aux = nil, nil, nil
		}
		s.hot = &hotStats{}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ctrBefore := obs.CounterSnapshot()
		tracer := obs.New()
		obs.Enable(tracer)
		obs.EnableCounters(true)
		h.traced = true
		h.runFor(d / 2)
		obs.EnableCounters(false)
		obs.Disable()
		info.counters = obs.DiffSnapshot(ctrBefore, obs.CounterSnapshot())
		runtime.ReadMemStats(&after)
		info.roundS, info.rounds = h.roundS[true], len(h.roundS[true])
		info.tracerSpans = tracer.Len()
		info.gcCycles = after.NumGC - before.NumGC
		info.gcPauseMs = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	}

	info.verifyS, info.verifyMaxDev = s.verifyRun(h)
	fmt.Printf("\ncells, in round order (k calls per sample; seconds per call, quiet and median [p25 p75]):\n")
	for _, c := range s.cells {
		sm := summarize(c.calls)
		fmt.Printf("  %-28s k=%-5d %11.6g %11.6g [%.6g %.6g]\n", c.name, c.k, quiet(c.calls), sm.Median, sm.P25, sm.P75)
	}

	res := &result{Metrics: map[string]metricValue{}}
	if !layers {
		totals := make([]float64, len(setups))
		for i, st := range setups {
			totals[i] = st.total
		}
		fmt.Printf("\nend-to-end metrics, tracing off, %d rounds (value; per round, disturbed or not: median [p25 p75] n):\n", h.nRounds)
		for _, m := range endToEnd {
			var value float64
			var sm summary
			if m.Name == "setup_s" {
				sm = summarize(totals)
				value = sm.Median
			} else {
				group := inGroup(s.cells, m.Name)
				value, sm = quietRatio(group), summarize(speedup(group))
			}
			fmt.Printf("  %-12s %12.6g %-3s   %.6g [%.6g %.6g] n=%d\n", m.Name, value, m.Unit, sm.Median, sm.P25, sm.P75, sm.N)
			res.Metrics[m.Name] = metricValue{value, m.Unit}
		}
	} else {
		values := s.perLayerValues(h, info)
		fmt.Printf("\nper-layer metrics from %d traced rounds (%d untraced rounds for the overhead baseline):\n",
			info.rounds, len(info.untracedRoundS))
		for _, m := range perLayer {
			fmt.Printf("  %-32s %14.6g %s\n", m.Name, values[m.Name], m.Unit)
			res.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
		}
		if err := h.writeTrace(traceFile); err != nil {
			h.check("write trace", err)
		} else {
			fmt.Printf("trace: %d spans written to %s\n", len(h.spans), traceFile)
		}
	}
	res.Attempted, res.Failed = h.attempted, h.failed

	fmt.Printf("\noperations: %d attempted, %d failed (cell calls, daemon requests, post-run checks; verification took %.2f s, worst deviation %.3g)\n",
		res.Attempted, res.Failed, info.verifyS, info.verifyMaxDev)
	for _, e := range h.firstErrs {
		fmt.Println("  FAILED", e)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// describe prints what the run computes on: tensor shapes, working-set
// size next to the caches, and what the file and daemon numbers mean.
func (s *state) describe() {
	coo := float64(s.x.StorageBytes()) / (1 << 20)
	var factors float64
	for _, d := range s.x.Dims {
		factors += float64(d) * float64(s.wb.R()) * 4 / (1 << 20)
	}
	fmt.Printf("main tensor %v, %d non-zeros; service tensor %v, %d non-zeros\n",
		s.x.Dims, s.x.NNZ(), s.svc.Dims, s.svc.NNZ())
	fmt.Printf("working set: %.2f MiB COO + %.2f MiB factor matrices, against 2 MiB L2 per core (x2) and 260 MiB shared host L3\n",
		coo, factors)
	fmt.Printf("files: %s input (service tensor) %.2f MB under %s, read back through the page cache (parse + checksum + copy, not a device)\n",
		s.w.Input, float64(s.inputBytes)/1e6, s.dir)
	fmt.Printf("daemon: in-process serve.Server behind httptest, closed loop, %d clients x %d requests per round over %d kinds\n",
		threads(), requestsPerClient, len(s.kinds))
	fmt.Println("roofline bytes are computed from the Table 1 models, not measured")
}
