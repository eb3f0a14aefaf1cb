// Command pastagen generates synthetic sparse tensors with the paper's
// two generators (§4.2) and writes them in the FROSTT .tns text format.
//
// Usage:
//
//	pastagen -gen kron -dims 65536,65536,65536 -nnz 1100000 -o regS.tns
//	pastagen -gen pl -dims 32768,32768,76 -sparse 0,1 -nnz 1000000 -o irrS.tns
//	pastagen -recipe s4 -nnz 100000 -o irrS-standin.tns   # a Table 3 recipe
//	pastagen -recipe deli -o deli.bten                    # fast binary output
//	pastagen -recipe deli -tiled -o deli.bten             # tiled v3 (out-of-core)
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/tensor"
)

func main() {
	var (
		genKind = flag.String("gen", "kron", "generator: kron | pl")
		dimsArg = flag.String("dims", "", "comma-separated mode sizes, e.g. 1024,1024,1024")
		sparse  = flag.String("sparse", "", "comma-separated power-law modes (pl only)")
		nnz     = flag.Int("nnz", 100000, "target non-zero count")
		exp     = flag.Float64("exp", gen.DefaultExponent, "power-law exponent (pl only)")
		seed    = flag.Int64("seed", 1, "random seed (reproducible output)")
		recipe  = flag.String("recipe", "", "generate a Table 2/3 entry by ID or name (e.g. s4, irrS, deli)")
		out     = flag.String("o", "", "output path: .tns, .tns.gz, or .bten (default .tns to stdout)")
		tiled   = flag.Bool("tiled", false, "write .bten output in the tiled v3 layout (streamable tile-at-a-time)")
		tileNNZ = flag.Int("tile-nnz", tensor.DefaultTileNNZ, "target non-zeros per tile for -tiled output")
	)
	flag.Parse()

	var (
		x   *tensor.COO
		err error
	)
	switch {
	case *recipe != "":
		var e dataset.Entry
		e, err = dataset.ByID(*recipe)
		if err == nil {
			x, err = dataset.Materialize(e, *nnz, *seed)
		}
	case *genKind == "kron":
		dims, derr := parseDims(*dimsArg)
		if derr != nil {
			fail(derr)
		}
		x, err = gen.Kronecker(dims, *nnz, nil, rand.New(rand.NewSource(*seed)))
	case *genKind == "pl":
		dims, derr := parseDims(*dimsArg)
		if derr != nil {
			fail(derr)
		}
		modes, merr := parseModes(*sparse)
		if merr != nil {
			fail(merr)
		}
		x, err = gen.PowerLaw(gen.PowerLawConfig{
			Dims: dims, SparseModes: modes, Exponent: *exp, NNZ: *nnz,
		}, rand.New(rand.NewSource(*seed)))
	default:
		fail(fmt.Errorf("unknown generator %q (want kron or pl)", *genKind))
	}
	if err != nil {
		fail(err)
	}

	fmt.Fprintf(os.Stderr, "generated %v\n", x)
	if *out == "" {
		if err := tensor.WriteTNS(os.Stdout, x); err != nil {
			fail(err)
		}
		return
	}
	start := time.Now()
	if *tiled {
		if err := tensor.WriteFileTiled(*out, x, *tileNNZ); err != nil {
			fail(err)
		}
	} else if err := tensor.WriteFile(*out, x); err != nil {
		fail(err)
	}
	elapsed := time.Since(start)
	info, err := os.Stat(*out)
	if err != nil {
		fail(err)
	}
	mb := float64(info.Size()) / 1e6
	fmt.Fprintf(os.Stderr, "wrote %s: %.2f MB in %v (%.1f MB/s)\n",
		*out, mb, elapsed.Round(time.Millisecond), mb/elapsed.Seconds())
}

func parseDims(s string) ([]tensor.Index, error) {
	if s == "" {
		return nil, fmt.Errorf("pastagen: -dims is required (e.g. -dims 1024,1024,1024)")
	}
	parts := strings.Split(s, ",")
	dims := make([]tensor.Index, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 32)
		if err != nil || v == 0 {
			return nil, fmt.Errorf("pastagen: bad dimension %q", p)
		}
		dims[i] = tensor.Index(v)
	}
	return dims, nil
}

func parseModes(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("pastagen: -sparse is required for the power-law generator (e.g. -sparse 0,1)")
	}
	parts := strings.Split(s, ",")
	modes := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("pastagen: bad mode %q", p)
		}
		modes[i] = v
	}
	return modes, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
