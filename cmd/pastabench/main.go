// Command pastabench regenerates the paper's tables and figures: the
// kernel analysis of Table 1, the datasets of Tables 2-3, the platforms
// of Table 4, the Roofline models of Figure 3, the per-platform kernel
// performance of Figures 4-7 (analytic model for the paper's machines,
// optionally wall-clock measurement on the host), the five observations
// of §5.3, and the ablations listed in DESIGN.md.
//
// Usage:
//
//	pastabench -exp all                # everything
//	pastabench -exp table1,fig4       # selected experiments
//	pastabench -exp fig4 -measure-host # add host-measured rows
//	pastabench -exp fig4 -nnz 200000   # larger stand-ins
//
// Host measurement can run guarded by the fault-tolerant execution
// runtime (-timeout, -fallback, -chaos-seed); see README.md and
// DESIGN.md §9.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/hicoo"
)

type options struct {
	nnz         int
	seed        int64
	runs        int
	r           int
	blockBits   uint
	measureHost bool
	ertFull     bool
	ranks       string
	paperScale  bool
	plot        bool
	jsonDir     string
	timeout     time.Duration
	fallback    bool
	chaosSeed   int64
	memBudget   string

	// Observability (see DESIGN.md §11).
	trace       string
	traceBlocks bool
	counters    bool
	profile     string
	pprofAddr   string
}

func main() {
	var (
		exp = flag.String("exp", "all", "experiments: table1,table2,table3,table4,fig3,fig4,fig5,fig6,fig7,observations,ablation,dist,ooc,all")
		o   options
	)
	flag.IntVar(&o.nnz, "nnz", 50000, "target non-zeros for dataset stand-ins")
	flag.Int64Var(&o.seed, "seed", 20200222, "generator seed")
	flag.IntVar(&o.runs, "runs", 5, "timed repetitions per host measurement")
	flag.IntVar(&o.r, "r", 16, "factor matrix columns (paper: 16)")
	flag.UintVar(&o.blockBits, "blockbits", 7, "log2 of the HiCOO block size (paper: 7 -> B=128)")
	flag.BoolVar(&o.measureHost, "measure-host", false, "also wall-clock-measure kernels on the host for fig4-7")
	flag.BoolVar(&o.ertFull, "ert-full", false, "run the full-size ERT micro-benchmarks (slower)")
	flag.StringVar(&o.ranks, "ranks", "1,2,4,8", "simulated worker counts for the dist experiment, comma-separated")
	flag.BoolVar(&o.paperScale, "paper-scale", true, "scale modeled workloads to the Table 2/3 paper sizes (structure measured on stand-ins)")
	flag.BoolVar(&o.plot, "plot", false, "render figures 4-7 as ASCII bar charts after the tables")
	flag.StringVar(&o.jsonDir, "json", "", "also write each figure's series as JSON into this directory")
	flag.DurationVar(&o.timeout, "timeout", 0, "deadline per guarded host-measurement trial, e.g. 30s (0 disables)")
	flag.BoolVar(&o.fallback, "fallback", false, "degrade a faulting measurement to the serial rung instead of failing")
	flag.Int64Var(&o.chaosSeed, "chaos-seed", 0, "non-zero: inject deterministic faults into host measurement (fault drill)")
	flag.StringVar(&o.memBudget, "mem-budget", "", "tile-residency byte cap for the ooc experiment, e.g. 8MiB (default: the streaming default)")
	flag.StringVar(&o.trace, "trace", "", "write a Chrome trace_event JSON of the run to this file (about:tracing / Perfetto)")
	flag.BoolVar(&o.traceBlocks, "trace-blocks", false, "with -trace: also record one span per simulated-GPU thread block (large traces)")
	flag.BoolVar(&o.counters, "counters", false, "enable runtime counters and print their summary after the experiments")
	flag.StringVar(&o.profile, "profile", "", "write a CPU profile of the run to this file (go tool pprof)")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the run's duration")
	flag.Parse()

	if o.r < 1 {
		fmt.Fprintf(os.Stderr, "pastabench: -r must be >= 1 (got %d)\n", o.r)
		os.Exit(2)
	}
	if o.runs < 1 {
		fmt.Fprintf(os.Stderr, "pastabench: -runs must be >= 1 (got %d)\n", o.runs)
		os.Exit(2)
	}
	if o.blockBits < 1 || o.blockBits > hicoo.MaxBlockBits {
		fmt.Fprintf(os.Stderr, "pastabench: -blockbits must be in [1,%d] (got %d)\n", hicoo.MaxBlockBits, o.blockBits)
		os.Exit(2)
	}

	known := map[string]func(options){
		"table1":       runTable1,
		"table2":       runTable2,
		"table3":       runTable3,
		"table4":       runTable4,
		"fig3":         runFigure3,
		"fig4":         func(o options) { runFigure(o, "fig4", "Bluesky") },
		"fig5":         func(o options) { runFigure(o, "fig5", "Wingtip") },
		"fig6":         func(o options) { runFigure(o, "fig6", "DGX-1P") },
		"fig7":         func(o options) { runFigure(o, "fig7", "DGX-1V") },
		"observations": runObservations,
		"ablation":     runAblations,
		"dist":         runDistScaling,
		"ooc":          runOOCStreaming,
	}
	order := []string{"table1", "table2", "table3", "table4", "fig3", "fig4", "fig5", "fig6", "fig7", "observations", "ablation", "dist", "ooc"}

	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		for _, e := range strings.Split(*exp, ",") {
			e = strings.TrimSpace(e)
			if _, ok := known[e]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s, all\n", e, strings.Join(order, ", "))
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}
	if err := startObs(o); err != nil {
		fmt.Fprintln(os.Stderr, "pastabench:", err)
		os.Exit(2)
	}
	for _, e := range selected {
		known[e](o)
		fmt.Println()
	}
	if code := finishObs(); code != 0 {
		os.Exit(code)
	}
}

func header(title string) {
	bar := strings.Repeat("=", len(title))
	fmt.Printf("%s\n%s\n", title, bar)
}
