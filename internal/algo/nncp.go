package algo

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// NNCP computes a NONNEGATIVE rank-R CP decomposition with multiplicative
// updates (Lee-Seung generalized to tensors; Welling & Weber). The
// healthcare-analytics applications the paper motivates Mttkrp with
// (§2.5, the choa tensor) use nonnegative CP for interpretability —
// factors are retained as nonnegative "phenotypes". The bottleneck kernel
// is the same Mttkrp as CP-ALS:
//
//	A_n ← A_n ⊙ Mttkrp(X, A, n) ⊘ (A_n · ⊛_{m≠n} A_mᵀA_m)
//
// Inputs must be nonnegative; the update preserves nonnegativity.
func NNCP(x *tensor.COO, rank, maxIters int, tol float64, seed int64, opt parallel.Options) (*CPResult, error) {
	for _, v := range x.Vals {
		if v < 0 {
			return nil, fmt.Errorf("algo: NNCP needs a nonnegative tensor")
		}
	}
	mttkrp, err := planMttkrp(x, rank, opt)
	if err != nil {
		return nil, err
	}
	// The driver's uniform (0,1) factors are a nonnegative init.
	return alsSweeps(x, rank, maxIters, tol, seed, mttkrp, (*cpWorkspace).multiplyMode)
}

// multiplyMode is the multiplicative update, per element: no solve, no
// sign flips. Factors stay unnormalized (the multiplicative form absorbs
// the weights), so the component weights are identically 1 and
// ReconstructAt and the CP fit identity remain exact.
func (w *cpWorkspace) multiplyMode(n int, mt, an *tensor.Matrix, lambda []float64) error {
	const eps = 1e-12
	w.hadamard(n)
	occ, rank := w.occ[n], w.n
	w.mulSquare(an.Data, w.v, occ)
	for at, i := range occ {
		a, m := an.Data[i*rank:(i+1)*rank], mt.Data[i*rank:(i+1)*rank]
		for r, denom := range w.rows[at*rank : (at+1)*rank] {
			a[r] = tensor.Value(float64(a[r]) * float64(m[r]) / (denom + eps))
		}
	}
	w.gramInto(w.grams[n], an, nil, occ)
	for r := range lambda {
		lambda[r] = 1
	}
	return nil
}
