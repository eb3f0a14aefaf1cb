package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/dataset"
	"repro/internal/govern"
	"repro/internal/kernelreg"
	"repro/internal/metrics"
	"repro/internal/ooc"
	"repro/internal/roofline"
)

// runOOCStreaming is the "ooc" experiment: the streaming kernels
// (MTTKRP, Ttv) run tile-at-a-time from a spooled PSTB v3 file under
// the -mem-budget byte cap, against the in-core OMP variants on the
// same tensor and operands. The column of interest is the streamed /
// in-core GFLOPS ratio — the price of bounding residency — next to the
// pipeline's own accounting (tiles cycled, evictions, peak leased
// bytes, prefetch hit rate). Both paths report the mean of metrics.Time's
// timed runs; -json writes the rows, every trial included, as figure "ooc".
func runOOCStreaming(o options) {
	budget := int64(ooc.DefaultBudget)
	if o.memBudget != "" {
		b, err := govern.ParseBytes(o.memBudget)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pastabench: -mem-budget:", err)
			os.Exit(2)
		}
		budget = b
	}
	header("Out-of-core streaming: tiled MTTKRP + Ttv under a byte budget")

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

	tr, fileBytes, err := ooc.Spool(x)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer tr.Close()
	if min := ooc.SpoolMinBudget(x.Order(), x.NNZ()); budget < min {
		fmt.Printf("(budget %d below the pipeline's two-lease working set; floored to %d)\n", budget, min)
		budget = min
	}
	fmt.Printf("(%s stand-in: %d nnz, %d tiles of ~%d nnz, %.2f MB spooled, budget %d bytes)\n",
		entry.Name, x.NNZ(), tr.NumTiles(), tr.TargetTileNNZ, float64(fileBytes)/1e6, budget)
	fmt.Printf("%-8s %-8s %10s %9s %9s %6s %6s %10s %10s %7s\n",
		"kernel", "path", "mean-ms", "GFLOPS", "ratio", "tiles", "evict", "peak-B", "read-B", "hits")

	ctx := context.Background()
	doc := jsonFigure{Figure: "ooc", Platform: "host", PaperScale: false, StandInNNZ: o.nnz}
	for _, k := range []roofline.Kernel{roofline.Mttkrp, roofline.Ttv} {
		v, err := kernelreg.Lookup(k, roofline.COO, kernelreg.OMP)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		inst, err := v.Prepare(wb, 0)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		inMean, inSec, err := metrics.Time(v.String(), o.runs, func() error { return inst.Run(ctx) })
		if err != nil {
			fmt.Printf("%-8s %-8s error: %v\n", k, "in-core", err)
			continue
		}
		incore := float64(inst.Flops) / inMean / 1e9
		fmt.Printf("%-8s %-8s %10.3f %9.2f %9s %6s %6s %10s %10s %7s\n",
			k, "in-core", inMean*1e3, incore, "1.00", "-", "-", "-", "-", "-")
		doc.Rows = append(doc.Rows, jsonRow{
			Tensor: entry.ID, Name: entry.Name, Dataset: "real",
			Kernel: k.String(), Format: "COO", Backend: "omp",
			GFLOPS: incore, Source: "measured", TrialSec: inSec,
		})

		opt := ooc.Options{MemBudget: budget, Sched: wb.Opt(ctx)}
		var st ooc.Stats
		outMean, outSec, err := metrics.Time(k.String()+"/COO@ooc", o.runs, func() (err error) {
			switch k {
			case roofline.Mttkrp:
				_, st, err = ooc.Mttkrp(ctx, tr, wb.Mats(), 0, opt)
			case roofline.Ttv:
				_, st, err = ooc.Ttv(ctx, tr, wb.Vec(0), 0, opt)
			}
			return err
		})
		if err != nil {
			fmt.Printf("%-8s %-8s error: %v\n", k, "streamed", err)
			continue
		}
		flops := ooc.TtvFlops(tr)
		if k == roofline.Mttkrp {
			flops = ooc.MttkrpFlops(tr, o.r)
		}
		streamed := float64(flops) / outMean / 1e9
		fmt.Printf("%-8s %-8s %10.3f %9.2f %8.2fx %6d %6d %10d %10d %6.0f%%\n",
			k, "streamed", outMean*1e3, streamed, streamed/incore,
			st.Tiles, st.Evictions, st.PeakBytes, st.BytesRead,
			100*float64(st.PrefetchHits)/float64(max(1, st.Tiles)))
		doc.Rows = append(doc.Rows, jsonRow{
			Tensor: entry.ID, Name: entry.Name, Dataset: "real",
			Kernel: k.String(), Format: "COO", Backend: "ooc",
			GFLOPS: streamed, Source: "measured", TrialSec: outSec,
		})
	}

	writeFigureJSON(o, "ooc", doc)
}
