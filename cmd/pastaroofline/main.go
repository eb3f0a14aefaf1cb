// Command pastaroofline is the suite's ERT analog (§5.2): it measures the
// host's sustainable bandwidth and peak FLOPS with STREAM-style
// micro-kernels, then prints Roofline curves for the host and the paper's
// four platforms with the five kernels' operational intensities marked —
// the data behind Figure 3.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/platform"
	"repro/internal/roofline"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind main: parse args, print the curves,
// and return the process exit code — 2 for a usage error, 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pastaroofline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		full   = fs.Bool("full", false, "run full-size micro-benchmarks (slower, more accurate)")
		points = fs.Int("points", 16, "samples per Roofline curve")
		noHost = fs.Bool("no-host", false, "skip the host measurement")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h is not a usage error
		}
		return 2
	}

	plats := platform.All()
	if !*noHost {
		fmt.Fprintln(stdout, "measuring host with ERT-style micro-kernels...")
		h := roofline.MeasureHost(!*full)
		fmt.Fprintf(stdout, "host: %d cores, peak %.1f GFLOPS (sustained FMA), DRAM %.2f GB/s, cache %.2f GB/s\n\n",
			h.Cores, h.PeakSPGFLOPS, h.ERTDRAMGBs, h.ERTLLCGBs)
		plats = append(plats, &h)
	}

	for _, p := range plats {
		c := roofline.BuildCurve(p, 1.0/32, 128, *points)
		fmt.Fprint(stdout, roofline.FormatCurve(c))
		marks := roofline.KernelMarks(p)
		names := make([]string, 0, len(marks))
		for k := range marks {
			names = append(names, k)
		}
		sort.Slice(names, func(i, j int) bool { return marks[names[i]].OI < marks[names[j]].OI })
		fmt.Fprintln(stdout, "kernel operational intensities (Table 1 asymptotic):")
		for _, k := range names {
			pt := marks[k]
			fmt.Fprintf(stdout, "  %-8s OI=%6.4f -> attainable %8.2f GFLOPS\n", k, pt.OI, pt.GFLOPS)
		}
		fmt.Fprintln(stdout)
	}
	return 0
}
