// Command decomposition runs a CANDECOMP/PARAFAC decomposition (CP-ALS)
// on a synthetic tensor — the tensor method whose bottleneck kernel,
// Mttkrp, this benchmark suite exists to characterize (§2.5). It first
// recovers an exactly low-rank tensor, then factorizes a power-law
// tensor such as a recommender system would produce.
package main

import (
	"fmt"
	"log"

	pasta "repro"
)

func main() {
	rng := pasta.GenerateSeeded(7)

	// Part 1: an exactly rank-3 tensor must be recovered near-perfectly.
	fmt.Println("== recovering an exactly rank-3 tensor ==")
	dims := []int{30, 25, 20}
	truth := make([]*pasta.Matrix, 3)
	td := make([]pasta.Index, 3)
	for n, d := range dims {
		truth[n] = pasta.NewMatrix(d, 3)
		truth[n].Randomize(rng)
		td[n] = pasta.Index(d)
	}
	x := pasta.NewCOO(td, dims[0]*dims[1]*dims[2])
	idx := make([]pasta.Index, 3)
	for i := 0; i < dims[0]; i++ {
		for j := 0; j < dims[1]; j++ {
			for k := 0; k < dims[2]; k++ {
				idx[0], idx[1], idx[2] = pasta.Index(i), pasta.Index(j), pasta.Index(k)
				var v float64
				for r := 0; r < 3; r++ {
					v += float64(truth[0].At(i, r)) * float64(truth[1].At(j, r)) * float64(truth[2].At(k, r))
				}
				x.Append(idx, pasta.Value(v))
			}
		}
	}
	res, err := pasta.CPALS(x, 3, 100, 1e-8, 1, pasta.Dynamic())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rank-3 fit: %.6f after %d sweeps (lambda = %.3f %.3f %.3f)\n\n",
		res.Fit, res.Iters, res.Lambda[0], res.Lambda[1], res.Lambda[2])

	// Part 2: factorize a sparse power-law tensor (user × item × context).
	fmt.Println("== CP-ALS on a power-law recommender tensor ==")
	y, err := pasta.PowerLaw(pasta.PowerLawConfig{
		Dims:        []pasta.Index{2000, 3000, 40},
		SparseModes: []int{0, 1},
		NNZ:         50_000,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tensor: %v\n", y)
	for _, rank := range []int{4, 8, 16} {
		res, err := pasta.CPALS(y, rank, 25, 1e-5, 2, pasta.Dynamic())
		if err != nil {
			log.Fatal(err)
		}
		// The dense update visits only the factor rows whose slice holds a
		// non-zero: OccupiedRows of Dims, per mode.
		fmt.Printf("rank %2d: fit %.4f in %d sweeps, factor rows updated %v of %v\n",
			rank, res.Fit, res.Iters, res.OccupiedRows, y.Dims)
		// The per-sweep record keeps the dense share (everything CP-ALS
		// does outside Mttkrp) visible next to the fit.
		for i, sw := range res.Sweeps {
			fmt.Printf("  sweep %2d: fit %.4f  %6.2f ms  dense share %.2f\n",
				i+1, sw.Fit, 1e3*sw.Seconds, 1-sw.MttkrpSeconds/sw.Seconds)
		}
	}

	// Part 3: Tucker decomposition via HOOI (TTM-chain bottleneck, §7).
	fmt.Println("\n== Tucker HOOI on a small dense-ish tensor ==")
	z := pasta.RandomCOO([]pasta.Index{40, 30, 20}, 6000, rng)
	tk, err := pasta.TuckerHOOI(z, []int{6, 5, 4}, 15, 1e-6, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("core %v, fit %.4f in %d sweeps\n", tk.Core.Dims, tk.Fit, tk.Iters)
}
