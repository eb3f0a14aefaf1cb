package algo

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// CPResult is the outcome of a CP-ALS run: X ≈ Σ_r λ_r · a_r⁽¹⁾ ∘ … ∘
// a_r⁽ᴺ⁾ with unit-norm factor columns.
type CPResult struct {
	// Factors holds one I_n × R matrix per mode with unit-norm columns.
	Factors []*tensor.Matrix
	// Lambda holds the R component weights.
	Lambda []float64
	// Fit is 1 - ‖X - X̂‖/‖X‖ (1 is exact).
	Fit float64
	// Iters is the number of ALS sweeps executed.
	Iters int
	// Sweeps holds one record per executed sweep, so the share of a
	// sweep spent outside Mttkrp stays visible.
	Sweeps []CPSweep
	// OccupiedRows holds, per mode, the number of factor rows whose
	// slice of X holds a non-zero: the rows a factor update visits (the
	// others are zero), so its dense cost is OccupiedRows[n]·R², not I_n·R².
	OccupiedRows []int
}

// CPSweep is the record of one ALS sweep over all modes.
type CPSweep struct {
	// Fit is the fit after the sweep.
	Fit float64 `json:"fit"`
	// Seconds is the sweep's wall time, MttkrpSeconds the part of it
	// spent inside the MttkrpFunc calls.
	Seconds       float64 `json:"seconds"`
	MttkrpSeconds float64 `json:"mttkrp_seconds"`
}

// MttkrpFunc computes the mode-n MTTKRP of the (implicit) input tensor
// with the given factor matrices. CPALSWith accepts one so the sweep's
// dominant kernel is pluggable: the serial/OMP plans here, or a
// distributed executor (internal/dist) that shards the tensor across
// workers and allreduces the partials. Like any Mttkrp it must not read
// factors[mode]: CPALSWith leaves factor 0 unset until mode 0's first
// update.
type MttkrpFunc func(mode int, factors []*tensor.Matrix) (*tensor.Matrix, error)

// CPALS computes a rank-R CANDECOMP/PARAFAC decomposition by alternating
// least squares, the tensor method whose dominant kernel is Mttkrp
// (§2.5). It stops when the fit improves by less than tol between sweeps
// or after maxIters sweeps.
func CPALS(x *tensor.COO, rank, maxIters int, tol float64, seed int64, opt parallel.Options) (*CPResult, error) {
	mttkrp, err := planMttkrp(x, rank, opt)
	if err != nil {
		return nil, err
	}
	return CPALSWith(x, rank, maxIters, tol, seed, mttkrp)
}

// planMttkrp prepares one COO Mttkrp plan per mode, kept across sweeps,
// and returns the MttkrpFunc that runs them.
func planMttkrp(x *tensor.COO, rank int, opt parallel.Options) (MttkrpFunc, error) {
	plans := make([]*core.MttkrpPlan, x.Order())
	for n := range plans {
		var err error
		if plans[n], err = core.PrepareMttkrp(x, n, rank); err != nil {
			return nil, err
		}
	}
	return func(mode int, factors []*tensor.Matrix) (*tensor.Matrix, error) {
		return plans[mode].ExecuteOMP(factors, opt)
	}, nil
}

// solveMode is the CP-ALS factor update: A_n = M · V⁻¹ with
// V = ⊛_{m≠n} gram_m, then column normalization → λ and the new gram_n.
func (w *cpWorkspace) solveMode(n int, mt, an *tensor.Matrix, lambda []float64) error {
	w.hadamard(n)
	if err := invertSPD(w.v, w.elim, w.inv, w.n); err != nil {
		return err
	}
	w.updateFactor(mt, an, lambda, w.grams[n], w.occ[n])
	return nil
}

// CPALSWith is CPALS with the MTTKRP execution injected: everything but
// the sweep's dominant kernel — factor initialization (deterministic in
// seed), the Hadamard-of-Grams normal equations, column normalization,
// and the fit stopping rule — stays here, so serial and distributed
// CP-ALS share one solver and can be cross-checked factor-for-factor.
// The sweep loop: seeded uniform factors, their grams and the occupied
// rows of every mode in a workspace allocated once, then per sweep one
// Mttkrp and one solveMode per mode, the fit, the sweep's record and the
// stopping rule.
func CPALSWith(x *tensor.COO, rank, maxIters int, tol float64, seed int64, mttkrp MttkrpFunc) (*CPResult, error) {
	if rank <= 0 {
		return nil, fmt.Errorf("algo: CP rank must be positive")
	}
	if x.Order() < 2 {
		return nil, fmt.Errorf("algo: CP needs an order >= 2 tensor")
	}
	normX := frobeniusNorm(x)
	if normX == 0 {
		return nil, fmt.Errorf("algo: zero tensor")
	}
	rng := newUniform(rand.NewSource(seed).(rand.Source64))
	res := &CPResult{
		Factors:      make([]*tensor.Matrix, x.Order()),
		Lambda:       make([]float64, rank),
		Sweeps:       make([]CPSweep, 0, max(maxIters, 0)),
		OccupiedRows: make([]int, x.Order()),
	}
	for n := range res.Factors {
		f := tensor.NewMatrix(int(x.Dims[n]), rank)
		if n == 0 && maxIters >= 1 {
			// No value of factor 0 is read before the first update
			// writes it: mode 0's Mttkrp skips it, solveMode(0)
			// overwrites its occupied rows and newCPWorkspace clears the
			// rest. Its draws are stepped over, not converted.
			rng.skip(len(f.Data))
		} else {
			rng.fill(f.Data)
		}
		res.Factors[n] = f
	}
	w := newCPWorkspace(res.Factors, rank, occupiedRows(x))
	for n, occ := range w.occ {
		res.OccupiedRows[n] = len(occ)
	}

	var mt *tensor.Matrix
	var err error
	for it := 0; it < maxIters; it++ {
		start, prevFit := time.Now(), res.Fit
		var inMttkrp time.Duration
		for n, an := range res.Factors {
			t0 := time.Now()
			mt, err = mttkrp(n, res.Factors)
			inMttkrp += time.Since(t0)
			if err != nil {
				return nil, err
			}
			if mt == nil || mt.Rows != an.Rows || mt.Cols != rank { // fmt prints a nil mt as <nil>
				return nil, fmt.Errorf("algo: mode-%d Mttkrp returned %v, the factor is %v", n, mt, an)
			}
			if err = w.solveMode(n, mt, an, res.Lambda); err != nil {
				return nil, err
			}
		}
		res.Fit = w.fit(normX, res, mt)
		res.Sweeps = append(res.Sweeps, CPSweep{Fit: res.Fit, Seconds: time.Since(start).Seconds(), MttkrpSeconds: inMttkrp.Seconds()})
		res.Iters = it + 1
		if it > 0 && math.Abs(res.Fit-prevFit) < tol {
			break
		}
	}
	return res, nil
}

// fit computes 1 - ‖X-X̂‖/‖X‖ using the standard CP-ALS identity:
// ‖X̂‖² = λᵀ (⊛_n AᵀA) λ and ⟨X, X̂⟩ = Σ_{i,r} M(i,r)·A_n(i,r)·λ_r with M
// the Mttkrp result of the last mode. It overwrites w.v.
func (w *cpWorkspace) fit(normX float64, res *CPResult, lastM *tensor.Matrix) float64 {
	rank := w.n
	// ‖X̂‖².
	w.hadamard(-1)
	var normEst float64
	for r := 0; r < rank; r++ {
		for s := 0; s < rank; s++ {
			normEst += res.Lambda[r] * res.Lambda[s] * w.v[r*rank+s]
		}
	}
	// ⟨X, X̂⟩.
	var inner float64
	last := len(res.Factors) - 1
	an := res.Factors[last]
	for _, i := range w.occ[last] {
		for r := 0; r < rank; r++ {
			inner += float64(lastM.Data[i*rank+r]) * float64(an.Data[i*rank+r]) * res.Lambda[r]
		}
	}
	residual := normX*normX - 2*inner + normEst
	if residual < 0 {
		residual = 0
	}
	return 1 - math.Sqrt(residual)/normX
}

// frobeniusNorm returns ‖X‖_F of a sparse tensor.
func frobeniusNorm(x *tensor.COO) float64 {
	var s float64
	for _, v := range x.Vals {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}
