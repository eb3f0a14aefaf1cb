package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/kernelreg"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/resilience"
	"repro/internal/roofline"
)

// jsonRow is one figure data point in the -json export.
type jsonRow struct {
	Tensor     string  `json:"tensor"`
	Name       string  `json:"name"`
	Dataset    string  `json:"dataset"` // "real" | "synthetic"
	Kernel     string  `json:"kernel"`
	Format     string  `json:"format"`
	Backend    string  `json:"backend,omitempty"` // measured rows: the registry backend that ran
	GFLOPS     float64 `json:"gflops"`
	Roofline   float64 `json:"roofline_gflops"`
	Efficiency float64 `json:"efficiency"`
	Source     string  `json:"source"`             // "modeled" | "measured"
	Strategy   string  `json:"strategy,omitempty"` // reduction strategy of measured reduction kernels
	Outcome    string  `json:"outcome,omitempty"`  // resilience outcome summary of guarded measured rows
	// TrialSec and Counters only appear on measured rows (and Counters
	// only when -counters armed the registry), so pre-existing series
	// files parse and re-serialize byte-identically.
	TrialSec []float64        `json:"trial_sec,omitempty"` // per-trial wall-clock seconds of measured rows
	Counters map[string]int64 `json:"counters,omitempty"`  // obs counter deltas attributed to the measurement
}

// jsonFigure is the -json document for one figure.
type jsonFigure struct {
	Figure     string    `json:"figure"`
	Platform   string    `json:"platform"`
	PaperScale bool      `json:"paper_scale"`
	StandInNNZ int       `json:"standin_nnz"`
	Rows       []jsonRow `json:"rows"`
}

// seriesRow is the -json row of one figure point of tensor e; the
// measured-only fields stay empty on modeled results.
func seriesRow(e dataset.Entry, r metrics.Result) jsonRow {
	ds := "real"
	if e.ID[0] == 's' {
		ds = "synthetic"
	}
	return jsonRow{
		Tensor: e.ID, Name: e.Name, Dataset: ds,
		Kernel: r.Kernel.String(), Format: r.Format.String(),
		GFLOPS: r.GFLOPS, Roofline: r.Roofline,
		Efficiency: r.Efficiency, Source: r.Source.String(),
		Strategy: r.Strategy, Outcome: r.Outcome,
		TrialSec: r.TrialSec, Counters: r.Counters,
	}
}

func writeFigureJSON(o options, fig string, doc jsonFigure) {
	if o.jsonDir == "" {
		return
	}
	if err := os.MkdirAll(o.jsonDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "json:", err)
		return
	}
	path := filepath.Join(o.jsonDir, fig+".json")
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "json:", err)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "json:", err)
		return
	}
	fmt.Printf("(series written to %s)\n", path)
}

// scaleWorkloads lifts stand-in-measured workloads to the paper's true
// tensor sizes (Table 2/3) when -paper-scale is on, so the model runs in
// the memory regime the paper evaluated.
func scaleWorkloads(ws []perfmodel.Workload, e dataset.Entry, o options) []perfmodel.Workload {
	if !o.paperScale {
		return ws
	}
	out := make([]perfmodel.Workload, len(ws))
	for i, w := range ws {
		out[i] = w.ScaleTo(e.PaperNNZ, e.PaperDims)
	}
	return out
}

// runFigure3 reproduces Figure 3: Roofline models of the four platforms
// with the kernels' operational intensities marked, plus (optionally
// full-size) ERT measurements of the host.
func runFigure3(o options) {
	header("Figure 3: Roofline models with tensor-kernel operational intensities")
	for _, p := range platform.All() {
		c := roofline.BuildCurve(p, 1.0/32, 64, 12)
		fmt.Print(roofline.FormatCurve(c))
		marks := roofline.KernelMarks(p)
		keys := make([]string, 0, len(marks))
		for k := range marks {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return marks[keys[i]].OI < marks[keys[j]].OI })
		fmt.Printf("kernel marks on ERT-DRAM roof:")
		for _, k := range keys {
			fmt.Printf("  %s(OI=%.3f -> %.1f GF/s)", k, marks[k].OI, marks[k].GFLOPS)
		}
		fmt.Println()
		fmt.Println()
	}
	fmt.Println("Host ERT (STREAM-style triad + FMA micro-kernels):")
	h := roofline.MeasureHost(!o.ertFull)
	fmt.Printf("  host: peak %.1f GFLOPS, DRAM %.1f GB/s, cache-resident %.1f GB/s (%d cores)\n",
		h.PeakSPGFLOPS, h.ERTDRAMGBs, h.ERTLLCGBs, h.Cores)
}

// formatLetter is the per-format column suffix of the figure tables.
var formatLetter = map[roofline.Format]string{
	roofline.COO:   "C",
	roofline.HiCOO: "H",
	roofline.CSF:   "S",
	roofline.FCOO:  "F",
	roofline.BCSF:  "B",
}

// classifyErr maps a measurement error onto its resilience-taxonomy
// class for a table cell, so a guarded sweep shows *why* a row is
// missing instead of a bare "err".
func classifyErr(err error) string {
	switch {
	case errors.Is(err, resilience.ErrUnsupported):
		return "unsup"
	case errors.Is(err, resilience.ErrDeadline):
		return "timeout"
	case errors.Is(err, resilience.ErrPanic):
		return "panic"
	case errors.Is(err, resilience.ErrNonFinite):
		return "nonfinite"
	case errors.Is(err, resilience.ErrExhausted):
		return "exhaust"
	case errors.Is(err, resilience.ErrBreakerOpen):
		return "breaker"
	default:
		return "err"
	}
}

// runFigure reproduces one of Figures 4-7: the five kernels across the
// real and synthetic datasets on a single platform, with the Roofline
// bound per tensor. The format columns under each kernel come from the
// kernelreg registry — COO and HiCOO everywhere, CSF and fCOO where
// registered (Ttv, Mttkrp) — so a newly registered format grows a column
// here without touching this file. Values for the paper's machines come
// from the analytic model; pass -measure-host to add wall-clock host
// rows (fCOO, a GPU-only format, is measured on the simulated device).
func runFigure(o options, fig, platName string) {
	p, err := platform.ByName(platName)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	scaleNote := "paper-scale workloads"
	if !o.paperScale {
		scaleNote = "stand-in-scale workloads"
	}
	header(fmt.Sprintf("Figure %s: single-precision kernel performance on %s (GFLOPS, modeled, %s)", fig[3:], platName, scaleNote))
	cfg := benchConfig(o)

	var host *platform.Platform
	if o.measureHost {
		h := roofline.MeasureHost(!o.ertFull)
		host = &h
		fmt.Printf("(host rows measured on %d-core host: peak %.1f GFLOPS, DRAM %.1f GB/s)\n",
			host.Cores, host.PeakSPGFLOPS, host.ERTDRAMGBs)
	}

	formatsOf := make(map[roofline.Kernel][]roofline.Format, len(roofline.Kernels))
	seriesOf := make(map[roofline.Kernel][]string, len(roofline.Kernels))
	charts := make(map[roofline.Kernel]*barChart, len(roofline.Kernels))
	for _, k := range roofline.Kernels {
		formatsOf[k] = kernelreg.FormatsFor(k)
		for _, f := range formatsOf[k] {
			seriesOf[k] = append(seriesOf[k], f.String())
		}
		charts[k] = &barChart{title: fmt.Sprintf("%s on %s", k, platName)}
		charts[k].ensureSeries(seriesOf[k])
	}
	doc := jsonFigure{Figure: fig, Platform: platName, PaperScale: o.paperScale, StandInNNZ: o.nnz}

	for _, group := range []struct {
		title   string
		entries []dataset.Entry
	}{
		{"(a) Real tensors", dataset.RealTensors()},
		{"(b) Synthetic tensors", dataset.Synthetic()},
	} {
		fmt.Printf("\n%s\n", group.title)
		fmt.Printf("%-5s %-9s", "No.", "Tensor")
		for _, k := range roofline.Kernels {
			fmt.Printf(" |")
			for _, f := range formatsOf[k] {
				fmt.Printf(" %9s", fmt.Sprintf("%s-%s", k, formatLetter[f]))
			}
		}
		fmt.Printf(" | %s\n", "Roofline(Tew..Mttkrp)")
		for _, e := range group.entries {
			x, err := dataset.Materialize(e, o.nnz, o.seed)
			if err != nil {
				fmt.Printf("%-5s %-9s error: %v\n", e.ID, e.Name, err)
				continue
			}
			ws := scaleWorkloads(metrics.Workloads(x, cfg), e, o)
			fmt.Printf("%-5s %-9s", e.ID, e.Name)
			var roofs []float64
			for _, k := range roofline.Kernels {
				fmt.Printf(" |")
				var kroof float64
				var kvals []float64
				for _, f := range formatsOf[k] {
					r := metrics.ModelFromWorkloads(p, ws, k, f)
					fmt.Printf(" %9.2f", r.GFLOPS)
					kvals = append(kvals, r.GFLOPS)
					if f == roofline.COO {
						kroof = r.Roofline
					}
					doc.Rows = append(doc.Rows, seriesRow(e, r))
				}
				roofs = append(roofs, kroof)
				charts[k].add(e.ID+" "+e.Name, kroof, kvals)
			}
			fmt.Printf(" |")
			for _, r := range roofs {
				fmt.Printf(" %.1f", r)
			}
			fmt.Println()
			if host != nil {
				fmt.Printf("%-5s %-9s", "", "(host)")
				var strategies, outcomes []string
				for _, k := range roofline.Kernels {
					fmt.Printf(" |")
					var strs []string
					anyStrategy := false
					for _, f := range formatsOf[k] {
						m, err := metrics.MeasureHost(host, x, k, f, cfg)
						if err != nil {
							fmt.Printf(" %9s", classifyErr(err))
							fmt.Fprintf(os.Stderr, "pastabench: %s %s/%s: %v\n", e.ID, k, f, err)
							strs = append(strs, "-")
							continue
						}
						fmt.Printf(" %9.2f", m.GFLOPS)
						row := seriesRow(e, m)
						if v, verr := kernelreg.HostVariant(k, f); verr == nil {
							row.Backend = v.Backend.String()
						}
						doc.Rows = append(doc.Rows, row)
						if m.Strategy != "" {
							strs = append(strs, m.Strategy)
							anyStrategy = true
						} else {
							strs = append(strs, "-")
						}
						// Surface any degraded trial so a guarded sweep cannot
						// silently present fallback or timed-out numbers as clean.
						if m.Outcome != "" && m.Outcome != "ok" {
							outcomes = append(outcomes, fmt.Sprintf("%s-%s:%s", k, formatLetter[f], m.Outcome))
						}
					}
					if anyStrategy {
						strategies = append(strategies, fmt.Sprintf("%s:%s", k, strings.Join(strs, "/")))
					}
				}
				fmt.Printf(" | measured %v", strategies)
				if len(outcomes) > 0 {
					fmt.Printf(" outcomes %v", outcomes)
				}
				fmt.Println()
			}
		}
	}
	fmt.Println("\nColumns per kernel (registered formats): -C = COO, -H = HiCOO, -S = CSF, -B = bCSF, -F = fCOO; Roofline = per-tensor attainable bound (COO OI).")
	writeFigureJSON(o, fig, doc)
	if o.plot {
		for _, k := range roofline.Kernels {
			fmt.Println()
			fmt.Print(charts[k].render())
		}
	}
}
