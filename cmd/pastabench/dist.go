package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/kernelreg"
	"repro/internal/metrics"
)

// parseRanks turns the -ranks flag ("1,2,4,8") into worker counts.
func parseRanks(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p, err := strconv.Atoi(part)
		if err != nil || p < 1 {
			return nil, fmt.Errorf("-ranks: %q is not a positive worker count", part)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-ranks: no worker counts in %q", s)
	}
	return out, nil
}

// runDistScaling is the "dist" experiment: MTTKRP and a CP-ALS sweep on
// the sharded execution layer across the -ranks worker counts, with
// measured communication volume checked against the alpha-beta model.
// The GFLOPS column divides the kernel's flops by measured compute time
// plus modeled comm time, so scaling rolls off the way a real cluster's
// would once communication dominates; the compute time is the mean of
// metrics.Time's timed runs. -json writes the rows, every trial
// included, as figure "dist".
func runDistScaling(o options) {
	ranks, err := parseRanks(o.ranks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pastabench:", err)
		os.Exit(2)
	}
	header("Distributed scaling: sharded MTTKRP + CP-ALS across simulated ranks")

	var entry dataset.Entry
	for _, e := range dataset.RealTensors() {
		if e.Name == "nell2" {
			entry = e
			break
		}
	}
	x, err := dataset.Materialize(entry, o.nnz, o.seed)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	wb := kernelreg.NewWorkbench(x, kernelreg.Config{R: o.r, BlockBits: uint8(o.blockBits)})
	mats := wb.Mats()
	flops := int64(x.Order()) * int64(x.NNZ()) * int64(o.r)
	fmt.Printf("(%s stand-in: %d nnz, R=%d, mode-0 shards, alpha-beta net %.1fus/%.1fGB/s)\n",
		entry.Name, x.NNZ(), o.r, dist.DefaultNetwork.LatencySec*1e6, dist.DefaultNetwork.BandwidthGBs)
	fmt.Printf("%-6s %-6s %10s %10s %10s %12s %9s %8s\n",
		"ranks", "fmt", "mean-ms", "comm-B", "comm-msg", "comm-model", "GFLOPS", "speedup")

	doc := jsonFigure{Figure: "dist", Platform: "host", PaperScale: false, StandInNNZ: o.nnz}
	base := map[dist.Format]float64{}
	for _, p := range ranks {
		for _, format := range []dist.Format{dist.FormatCOO, dist.FormatHiCOO} {
			eng, err := dist.NewEngine(x, dist.Options{
				Ranks: p, Format: format, BlockBits: uint8(o.blockBits),
			})
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			backend := fmt.Sprintf("dist-p%d", p)
			var res *dist.MttkrpResult
			mean, secs, err := metrics.Time("Mttkrp/"+format.String()+"@"+backend, o.runs, func() (err error) {
				res, err = eng.Mttkrp(context.Background(), 0, mats, o.r)
				return err
			})
			if err != nil {
				fmt.Printf("%-6d %-6s error: %v\n", p, format, err)
				continue
			}
			total := mean + res.ModeledCommSec
			gflops := float64(flops) / total / 1e9
			if _, ok := base[format]; !ok {
				base[format] = total
			}
			fmt.Printf("%-6d %-6s %10.3f %10d %10d %10.1fus %9.2f %7.2fx\n",
				p, format, mean*1e3, res.CommBytes, res.CommMessages,
				res.ModeledCommSec*1e6, gflops, base[format]/total)
			doc.Rows = append(doc.Rows, jsonRow{
				Tensor: entry.ID, Name: entry.Name, Dataset: "real",
				Kernel: "Mttkrp", Format: format.String(),
				Backend: backend, GFLOPS: gflops, Source: "measured", TrialSec: secs,
			})
		}
	}

	// CP-ALS sweep: the full decomposition loop on the distributed
	// engine, so every rank count also exercises the allreduce-per-mode
	// pattern end to end.
	fmt.Printf("\n%-6s %-10s %8s %10s\n", "ranks", "cpals-fit", "sweeps", "comm-B")
	const cpRank, cpIters = 8, 3
	for _, p := range ranks {
		eng, err := dist.NewEngine(x, dist.Options{Ranks: p, BlockBits: uint8(o.blockBits)})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		res, err := eng.CPALS(context.Background(), cpRank, cpIters, 0, o.seed)
		if err != nil {
			fmt.Printf("%-6d error: %v\n", p, err)
			return
		}
		st := eng.Stats()
		fmt.Printf("%-6d %-10.6f %8d %10d\n", p, res.Fit, res.Iters, st.CommBytes)
	}

	writeFigureJSON(o, "dist", doc)
}
