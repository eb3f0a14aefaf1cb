// Command pastainfo inspects a sparse tensor — a tensor file or a Table 2/3
// dataset entry — reporting its shape, density, per-mode fiber statistics,
// and storage footprint in every format the suite implements (COO, HiCOO,
// gHiCOO, CSF).
//
// Usage:
//
//	pastainfo -f tensor.tns
//	pastainfo -f tensor.bten           # binary input; v3 also prints the tile directory
//	pastainfo -id deli -nnz 100000     # a scaled Table 2 stand-in
//	pastainfo -variants                # print the kernel-variant registry
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"repro/internal/csf"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/hicoo"
	"repro/internal/kernelreg"
	"repro/internal/reorder"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// printVariants renders the kernelreg registry as a grid: one row per
// registered (kernel, format) pair, a mark per backend, and the
// capability flags consumers dispatch on. This is the live registry —
// the same enumeration metrics, pastaverify, pastabench, and the chaos
// matrix iterate — so the grid always reflects what a build can run.
func printVariants(w io.Writer) {
	all := kernelreg.All()
	generated := 0
	for _, v := range all {
		if v.Generated {
			generated++
		}
	}
	fmt.Fprintf(w, "kernel-variant registry: %d variants across %d (kernel, format) pairs (%d hand-tuned, %d generated)\n\n",
		len(all), len(kernelreg.Grid()), len(all)-generated, generated)
	fmt.Fprintf(w, "%-8s %-7s %-4s %-4s %-9s %-4s %-5s %s\n", "Kernel", "Format", "omp", "gpu", "multigpu", "ooc", "impl", "caps")
	for _, pr := range kernelreg.Grid() {
		marks := make(map[kernelreg.Backend]string, len(kernelreg.Backends))
		for _, b := range kernelreg.Backends {
			marks[b] = "."
		}
		var caps []string
		seen := make(map[string]bool)
		anyGen, anyHand := false, false
		for _, b := range kernelreg.BackendsFor(pr.Kernel, pr.Format) {
			marks[b] = "x"
			v, err := kernelreg.Lookup(pr.Kernel, pr.Format, b)
			if err != nil {
				continue
			}
			if v.Generated {
				anyGen = true
			} else {
				anyHand = true
			}
			for _, c := range capFlags(v.Caps) {
				if !seen[c] {
					seen[c] = true
					caps = append(caps, c)
				}
			}
		}
		capCol := "-"
		if len(caps) > 0 {
			capCol = strings.Join(caps, ",")
		}
		impl := "hand"
		switch {
		case anyGen && anyHand:
			impl = "mixed"
		case anyGen:
			impl = "gen"
		}
		fmt.Fprintf(w, "%-8s %-7s %-4s %-4s %-9s %-4s %-5s %s\n",
			pr.Kernel, pr.Format,
			marks[kernelreg.OMP], marks[kernelreg.GPU], marks[kernelreg.MultiGPU],
			marks[kernelreg.OOC], impl, capCol)
	}
	fmt.Fprintln(w, "\nimpl: hand = hand-tuned registered override; gen = instantiated from the")
	fmt.Fprintln(w, "format's level declaration by the generic level-iterator kernels (internal/levels).")
	fmt.Fprintln(w, "\nformat level signatures:")
	for _, f := range roofline.Formats {
		for _, v := range all {
			if v.Format == f {
				if v.Levels != "" {
					fmt.Fprintf(w, "  %-7s %s\n", f, v.Levels)
				} else {
					fmt.Fprintf(w, "  %-7s (no level view)\n", f)
				}
				break
			}
		}
	}
	fmt.Fprintln(w, "\ncaps: mode-sweep = averaged over every tensor mode; factors = consumes dense")
	fmt.Fprintln(w, "factor matrices (R columns); serial-ref = fallback rung is the serial COO")
	fmt.Fprintln(w, "reference (no native serial path).")
}

// capFlags renders capability metadata as short flags.
func capFlags(c kernelreg.Caps) []string {
	var out []string
	if c.ModeDependent {
		out = append(out, "mode-sweep")
	}
	if c.NeedsFactors {
		out = append(out, "factors")
	}
	if c.SerialRef {
		out = append(out, "serial-ref")
	}
	return out
}

// printTileDirectory renders a PSTB v3 tile directory: one row per
// tile with its non-zero range, payload extent, and per-mode bounding
// box — the layout the out-of-core executor streams tile-at-a-time.
func printTileDirectory(w io.Writer, tr *tensor.TileReader) {
	fmt.Fprintf(w, "\ntile directory (PSTB v3, target %d nnz/tile, %d tiles, max tile %d bytes):\n",
		tr.TargetTileNNZ, tr.NumTiles(), tr.MaxTileBytes())
	fmt.Fprintf(w, "%6s %12s %10s %12s %10s  %s\n", "tile", "start", "nnz", "offset", "bytes", "bounding box")
	const maxRows = 32
	for i := range tr.Tiles {
		if i == maxRows {
			fmt.Fprintf(w, "%6s (%d more tiles)\n", "...", len(tr.Tiles)-maxRows)
			break
		}
		ti := &tr.Tiles[i]
		box := "(empty)"
		if !ti.Empty() {
			parts := make([]string, len(ti.BoxLo))
			for n := range ti.BoxLo {
				parts[n] = fmt.Sprintf("%d..%d", ti.BoxLo[n], ti.BoxHi[n])
			}
			box = strings.Join(parts, ",")
		}
		fmt.Fprintf(w, "%6d %12d %10d %12d %10d  %s\n", i, ti.Start, ti.Count, ti.Offset, ti.Bytes, box)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind main: parse args, load or generate the
// tensor, print its report to w, and return the process exit code — 2
// for a usage error, 1 when the tensor cannot be loaded, 0 otherwise.
func run(args []string, w, stderr io.Writer) int {
	fs := flag.NewFlagSet("pastainfo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		file       = fs.String("f", "", "path to a tensor file (.tns, .tns.gz, or .bten)")
		id         = fs.String("id", "", "dataset entry ID or name (Table 2/3)")
		nnz        = fs.Int("nnz", 100000, "stand-in non-zero target when using -id")
		seed       = fs.Int64("seed", 1, "stand-in seed")
		blockBits  = fs.Uint("blockbits", uint(hicoo.DefaultBlockBits), "log2 HiCOO block size")
		reorderCmp = fs.Bool("reorder", false, "compare index orderings (identity/random/degree/first-touch) by HiCOO block count")
		variants   = fs.Bool("variants", false, "print the kernel-variant registry grid and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h is not a usage error
		}
		return 2
	}

	if *variants {
		printVariants(w)
		return 0
	}

	if *blockBits < 1 || *blockBits > hicoo.MaxBlockBits {
		fmt.Fprintf(stderr, "pastainfo: -blockbits must be in [1,%d] (got %d)\n", hicoo.MaxBlockBits, *blockBits)
		return 2
	}

	var (
		x     *tensor.COO
		stats tensor.LoadStats
		err   error
	)
	switch {
	case *file != "":
		x, stats, err = tensor.ReadFileStats(*file)
		if err == nil {
			err = x.Validate()
		}
	case *id != "":
		var e dataset.Entry
		e, err = dataset.ByID(*id)
		if err == nil {
			x, err = dataset.Materialize(e, *nnz, *seed)
		}
	default:
		fmt.Fprintln(stderr, "pastainfo: need -f <tensor file> or -id <dataset entry>")
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "pastainfo:", err)
		return 1
	}

	if stats.Path != "" {
		fmt.Fprintf(w, "load:    %v\n", stats)
	}
	fmt.Fprintf(w, "tensor:  %v\n", x)
	fmt.Fprintf(w, "order:   %d\n", x.Order())
	fmt.Fprintf(w, "dims:    %v\n", x.Dims)
	fmt.Fprintf(w, "nnz:     %d\n", x.NNZ())
	fmt.Fprintf(w, "density: %.3g\n\n", x.Density())

	fmt.Fprintln(w, "per-mode structure:")
	fmt.Fprintf(w, "%6s %12s %10s %10s %12s %12s %10s\n", "mode", "fibers", "min len", "max len", "imbalance", "collisions", "skew")
	for n := 0; n < x.Order(); n++ {
		fs := tensor.ComputeFiberStats(x, n)
		fmt.Fprintf(w, "%6d %12d %10d %10d %12.2f %12.2f %10.2f\n",
			n, fs.NumFibers, fs.MinLen, fs.MaxLen, fs.Imbalance,
			tensor.ModeCollisions(x, n), gen.DegreeSkew(x, n))
	}

	bits := uint8(*blockBits)
	h := hicoo.FromCOO(x, bits)
	st := h.ComputeStats()
	c, cerr := csf.FromCOO(x, nil)

	fmt.Fprintln(w, "\nformat storage:")
	fmt.Fprintf(w, "%-28s %14d bytes\n", "COO  4(N+1)M", x.StorageBytes())
	fmt.Fprintf(w, "%-28s %14d bytes  (%.2fx vs COO, %d blocks, %.1f%% singleton)\n",
		fmt.Sprintf("HiCOO B=%d", 1<<bits), st.StorageBytes, st.CompressionVsCOO,
		st.NumBlocks, 100*float64(st.SingletonBlocks)/float64(max(1, st.NumBlocks)))
	for mode := 0; mode < x.Order(); mode++ {
		g := hicoo.FromCOOExceptMode(x, mode, bits)
		fmt.Fprintf(w, "%-28s %14d bytes\n", fmt.Sprintf("gHiCOO (mode %d uncomp.)", mode), g.StorageBytes())
	}
	if cerr == nil {
		fmt.Fprintf(w, "%-28s %14d bytes\n", "CSF (natural order)", c.StorageBytes())
	}

	// A tiled v3 file additionally carries the directory an out-of-core
	// stream iterates; v1/v2 files simply lack one and print nothing.
	if *file != "" {
		if tr, ok, derr := tensor.ReadTileDirectory(*file); derr == nil && ok {
			printTileDirectory(w, tr)
		}
	}

	if *reorderCmp {
		fmt.Fprintln(w, "\nindex-reordering comparison (HiCOO block count, fewer = better locality):")
		rng := rand.New(rand.NewSource(int64(*seed)))
		orderings := []struct {
			name string
			p    *reorder.Perm
		}{
			{"identity", reorder.Identity(x.Dims)},
			{"random", reorder.Random(x.Dims, rng)},
			{"by-degree", reorder.ByDegree(x)},
			{"first-touch", reorder.FirstTouch(x)},
		}
		for _, o := range orderings {
			y, err := o.p.Apply(x)
			if err != nil {
				fmt.Fprintln(stderr, "pastainfo:", err)
				return 1
			}
			st2 := hicoo.FromCOO(y, bits).ComputeStats()
			fmt.Fprintf(w, "  %-12s %8d blocks, mean occupancy %7.2f, storage %10d bytes\n",
				o.name, st2.NumBlocks, st2.MeanNNZPerBlock, st2.StorageBytes)
		}
	}
	return 0
}
