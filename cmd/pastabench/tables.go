package main

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/kernelreg"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// runTable1 reproduces Table 1: the symbolic work / memory-access /
// operational-intensity analysis of the five kernels for a third-order
// cubical tensor, cross-checked against a concrete synthetic instance.
func runTable1(o options) {
	header("Table 1: kernel algorithm analysis (third-order cubical tensors)")
	fmt.Println("Symbolic, with M non-zeros, MF fibers, R columns, nb blocks, B block size:")
	fmt.Printf("%-8s %-10s %-26s %-34s %s\n", "Kernel", "Work", "Bytes (COO)", "Bytes (HiCOO)", "OI (asympt.)")
	rows := []struct{ k, w, coo, hicoo, oi string }{
		{"Tew", "M", "12M", "12M", "1/12"},
		{"Ts", "M", "8M", "8M", "1/8"},
		{"Ttv", "2M", "12M + 12MF", "12M + 12MF", "~1/6"},
		{"Ttm", "2MR", "4MR + 4MFR + 8M + 8MF", "4MR + 4MFR + 8M + 8MF", "~1/2"},
		{"Mttkrp", "3MR", "12MR + 16M", "12R*min{nb*B, M} + 7M + 20nb", "~1/4"},
	}
	for _, r := range rows {
		fmt.Printf("%-8s %-10s %-26s %-34s %s\n", r.k, r.w, r.coo, r.hicoo, r.oi)
	}

	// Concrete cross-check on a generated cubical tensor.
	e, _ := dataset.ByID("regS")
	x, err := dataset.Materialize(e, o.nnz, o.seed)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	cfg := benchConfig(o)
	rp := metrics.Workloads(x, cfg)[0].Params
	fmt.Printf("\nConcrete instance (regS stand-in): M=%d MF=%d nb=%d R=%d B=%d\n", rp.M, rp.MF, rp.Nb, rp.R, rp.BlockSize)
	fmt.Println("One row per registered (kernel, format) pair, evaluated via the variant's model hook:")
	fmt.Printf("%-8s %-7s %12s %14s %10s %10s\n", "Kernel", "Format", "Flops", "Bytes", "OI", "OI(tab.)")
	for _, pr := range kernelreg.Grid() {
		v, err := kernelreg.HostVariant(pr.Kernel, pr.Format)
		if err != nil {
			fmt.Printf("%-8s %-7s error: %v\n", pr.Kernel, pr.Format, err)
			continue
		}
		flops, bytes := v.Model(rp)
		fmt.Printf("%-8s %-7s %12d %14d %10.4f %10.4f\n",
			pr.Kernel, pr.Format, flops, bytes, v.OI(rp), roofline.AsymptoticOI(pr.Kernel))
	}
}

// runTable2 reproduces Table 2: the real-tensor dataset (paper values)
// and the scaled stand-ins this reproduction materializes.
func runTable2(o options) {
	header("Table 2: real sparse tensors (paper) and scaled stand-ins (this run)")
	fmt.Printf("%-4s %-9s %-5s %-30s %10s %10s | %-22s %9s %10s %8s\n",
		"No.", "Tensor", "Order", "Paper dims", "PaperNNZ", "PaperDens", "Stand-in dims", "NNZ", "Density", "Gen")
	for _, e := range dataset.RealTensors() {
		x, err := dataset.Materialize(e, o.nnz, o.seed)
		if err != nil {
			fmt.Printf("%-4s %-9s error: %v\n", e.ID, e.Name, err)
			continue
		}
		s := dataset.Summarize(e, x)
		fmt.Printf("%-4s %-9s %-5d %-30s %10.3g %10.2g | %-22s %9d %10.2g %8s\n",
			e.ID, e.Name, e.Order(), dimsString64(e.PaperDims), float64(e.PaperNNZ), e.PaperDensity(),
			dimsString(s.Dims), s.NNZ, s.Density, e.Gen)
	}
}

// runTable3 reproduces Table 3: the synthetic tensors from the Kronecker
// and power-law generators.
func runTable3(o options) {
	header("Table 3: synthetic tensors (paper recipes, regenerated at stand-in scale)")
	fmt.Printf("%-4s %-9s %-6s %-5s %-30s %10s %10s | %-22s %9s %10s\n",
		"No.", "Tensor", "Gen.", "Order", "Paper dims", "PaperNNZ", "PaperDens", "Generated dims", "NNZ", "Density")
	for _, e := range dataset.Synthetic() {
		x, err := dataset.Materialize(e, o.nnz, o.seed)
		if err != nil {
			fmt.Printf("%-4s %-9s error: %v\n", e.ID, e.Name, err)
			continue
		}
		s := dataset.Summarize(e, x)
		fmt.Printf("%-4s %-9s %-6s %-5d %-30s %10.3g %10.2g | %-22s %9d %10.2g\n",
			e.ID, e.Name, e.Gen, e.Order(), dimsString64(e.PaperDims), float64(e.PaperNNZ), e.PaperDensity(),
			dimsString(s.Dims), s.NNZ, s.Density)
	}
}

// runTable4 reproduces Table 4: the platform parameters.
func runTable4(o options) {
	header("Table 4: platform parameters")
	fmt.Printf("%-10s %-6s %-22s %-9s %8s %6s %8s %9s %8s %8s %9s %8s\n",
		"Platform", "Kind", "Processor", "Microarch", "Freq", "Cores", "Sockets", "PeakSP", "LLC", "MemBW", "ERT-DRAM", "ERT-LLC")
	for _, p := range platform.All() {
		fmt.Printf("%-10s %-6s %-22s %-9s %5.2fGHz %6d %8d %7.1fTF %6dMB %6.0fGB/s %7.0fGB/s %6.0fGB/s\n",
			p.Name, p.Kind, p.Processor, p.Microarch, p.FreqGHz, p.Cores, p.Sockets,
			p.PeakSPGFLOPS/1000, p.LLCBytes>>20, p.MemBWGBs, p.ERTDRAMGBs, p.ERTLLCGBs)
	}
}

func benchConfig(o options) metrics.Config {
	cfg := metrics.DefaultConfig()
	cfg.R = o.r
	cfg.BlockBits = uint8(o.blockBits)
	cfg.Runs = o.runs
	cfg.Timeout = o.timeout
	cfg.Fallback = o.fallback
	cfg.ChaosSeed = o.chaosSeed
	return cfg
}

func dimsString(dims []tensor.Index) string {
	s := ""
	for i, d := range dims {
		if i > 0 {
			s += "x"
		}
		s += fmt.Sprintf("%d", d)
	}
	return s
}

func dimsString64(dims []int64) string {
	s := ""
	for i, d := range dims {
		if i > 0 {
			s += "x"
		}
		switch {
		case d >= 1e6:
			s += fmt.Sprintf("%.1fM", float64(d)/1e6)
		case d >= 1e3:
			s += fmt.Sprintf("%.0fK", float64(d)/1e3)
		default:
			s += fmt.Sprintf("%d", d)
		}
	}
	return s
}
