package algo

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/tensor"
)

// TuckerResult is a Tucker decomposition X ≈ G ×₁ U₁ … ×_N U_N with
// orthonormal factor columns.
type TuckerResult struct {
	// Core is the R₁×…×R_N core tensor.
	Core *DenseTensor
	// Factors holds one I_n × R_n orthonormal matrix per mode.
	Factors []*tensor.Matrix
	// Fit is 1 - ‖X - X̂‖/‖X‖.
	Fit float64
	// Iters is the number of HOOI sweeps executed.
	Iters int
}

// TuckerHOOI computes a Tucker decomposition with Higher-Order Orthogonal
// Iteration, the tensor method whose bottleneck kernel is the TTM chain
// (§2.4, §7). Each sweep updates U_n to the leading R_n eigenvectors of
// the mode-n matricization of X ×_{m≠n} U_mᵀ. The Gram matrices are
// I_n × I_n, so this reference implementation targets modest mode sizes
// (up to a few hundred).
func TuckerHOOI(x *tensor.COO, ranks []int, maxIters int, tol float64, seed int64) (*TuckerResult, error) {
	order := x.Order()
	if len(ranks) != order {
		return nil, fmt.Errorf("algo: Tucker got %d ranks for order-%d tensor", len(ranks), order)
	}
	for n, r := range ranks {
		if r < 1 || r > int(x.Dims[n]) {
			return nil, fmt.Errorf("algo: Tucker rank %d invalid for mode %d (size %d)", r, n, x.Dims[n])
		}
	}
	if x.NNZ() == 0 {
		return nil, fmt.Errorf("algo: zero tensor")
	}
	rng := rand.New(rand.NewSource(seed))
	res := &TuckerResult{Factors: make([]*tensor.Matrix, order)}
	for n := 0; n < order; n++ {
		res.Factors[n] = randomOrthonormal(int(x.Dims[n]), ranks[n], rng)
	}
	normX := frobeniusNorm(x)

	prevFit := 0.0
	for it := 0; it < maxIters; it++ {
		res.Iters = it + 1
		for n := 0; n < order; n++ {
			w, err := projectAllBut(x, res.Factors, n)
			if err != nil {
				return nil, err
			}
			// Gram G = W Wᵀ (I_n × I_n) and its leading eigenvectors.
			in := int(x.Dims[n])
			cols := len(w) / in
			g := make([]float64, in*in)
			for i := 0; i < in; i++ {
				for j := i; j < in; j++ {
					var s float64
					for c := 0; c < cols; c++ {
						s += w[i*cols+c] * w[j*cols+c]
					}
					g[i*in+j] = s
					g[j*in+i] = s
				}
			}
			_, vecs, err := jacobiEigen(g, in)
			if err != nil {
				return nil, err
			}
			u := res.Factors[n]
			for i := 0; i < in; i++ {
				for r := 0; r < ranks[n]; r++ {
					u.Set(i, r, tensor.Value(vecs[i*in+r]))
				}
			}
		}
		// Core and fit: with orthonormal factors ‖X̂‖ = ‖core‖.
		coreT, err := TTMChain(x, res.Factors)
		if err != nil {
			return nil, err
		}
		res.Core = coreT
		var coreNorm float64
		for _, v := range coreT.Data {
			coreNorm += float64(v) * float64(v)
		}
		residual := normX*normX - coreNorm
		if residual < 0 {
			residual = 0
		}
		res.Fit = 1 - math.Sqrt(residual)/normX
		if it > 0 && math.Abs(res.Fit-prevFit) < tol {
			break
		}
		prevFit = res.Fit
	}
	return res, nil
}

// projectAllBut computes W = mode-n matricization of X ×_{m≠n} U_mᵀ as a
// dense I_n × ∏_{m≠n} R_m row-major array, by chaining the suite's
// Ttm/TtmSemi kernels over every mode except n.
func projectAllBut(x *tensor.COO, factors []*tensor.Matrix, skip int) ([]float64, error) {
	order := x.Order()
	// First contraction on the lowest non-skip mode via sparse Ttm, the
	// rest via semi-sparse TtmSemi.
	first := 0
	if first == skip {
		first = 1
	}
	cur, err := core.Ttm(x, factors[first], first)
	if err != nil {
		return nil, err
	}
	for n := 0; n < order; n++ {
		if n == skip || n == first {
			continue
		}
		cur, err = core.TtmSemi(cur, factors[n], n)
		if err != nil {
			return nil, err
		}
	}
	// cur: sparse mode = skip only; dense modes = all others with sizes
	// R_m (ascending mode order, which is the Kolda matricization column
	// order up to a fixed permutation — consistent across sweeps, which
	// is all the Gram computation needs).
	in := int(x.Dims[skip])
	cols := cur.DenseSize()
	w := make([]float64, in*cols)
	sparse := cur.SparseModes()
	if len(sparse) != 1 || sparse[0] != skip {
		return nil, fmt.Errorf("algo: projectAllBut left sparse modes %v", sparse)
	}
	for f := 0; f < cur.NumFibers(); f++ {
		i := int(cur.Inds[0][f])
		row := cur.FiberVals(f)
		for c, v := range row {
			w[i*cols+c] += float64(v)
		}
	}
	return w, nil
}

// randomOrthonormal returns an I×R matrix with orthonormal columns via
// modified Gram-Schmidt on random data.
func randomOrthonormal(rows, cols int, rng *rand.Rand) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	col := make([]float64, rows)
	prev := make([][]float64, 0, cols)
	for c := 0; c < cols; c++ {
		for {
			for i := range col {
				col[i] = rng.NormFloat64()
			}
			for _, p := range prev {
				var dot float64
				for i := range col {
					dot += col[i] * p[i]
				}
				for i := range col {
					col[i] -= dot * p[i]
				}
			}
			var norm float64
			for _, v := range col {
				norm += v * v
			}
			norm = math.Sqrt(norm)
			if norm > 1e-8 {
				for i := range col {
					col[i] /= norm
				}
				break
			}
		}
		saved := append([]float64(nil), col...)
		prev = append(prev, saved)
		for i := 0; i < rows; i++ {
			m.Set(i, c, tensor.Value(saved[i]))
		}
	}
	return m
}
