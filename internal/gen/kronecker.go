// Package gen implements the paper's two synthetic sparse tensor
// generators (§4.2): the stochastic Kronecker graph model extended to
// N-mode tensors, and the FireHose-style biased power-law streaming
// generator. Both produce tensors whose non-zero patterns preserve the
// power-law distribution, small diameter, and clustering properties of
// real-world (hyper-)graphs.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Initiator is the Kronecker initiator tensor τ₁: a small dense
// probability tensor whose repeated Kronecker product defines the
// self-similar distribution of the generated tensor (§4.2.1).
type Initiator struct {
	// Dims holds the initiator's mode sizes (usually all 2).
	Dims []int
	// Probs holds the 2^N (or Π Dims) cell probabilities, row-major,
	// summing to 1.
	Probs []float64
}

// DefaultInitiator returns an RMAT-style corner-biased initiator of the
// given order with 2-sized modes: the probability of a cell decays
// geometrically (factor rho) with the number of 1-coordinates, which
// concentrates non-zeros near the origin exactly like RMAT's
// (A,B,C,D) = (0.57, 0.19, 0.19, 0.05) does for matrices.
func DefaultInitiator(order int) *Initiator {
	const rho = 1.0 / 3.0
	cells := 1 << order
	probs := make([]float64, cells)
	var sum float64
	for c := 0; c < cells; c++ {
		ones := 0
		for n := 0; n < order; n++ {
			if c>>n&1 == 1 {
				ones++
			}
		}
		probs[c] = math.Pow(rho, float64(ones))
		sum += probs[c]
	}
	for c := range probs {
		probs[c] /= sum
	}
	dims := make([]int, order)
	for n := range dims {
		dims[n] = 2
	}
	return &Initiator{Dims: dims, Probs: probs}
}

// Validate checks the initiator's structural invariants.
func (in *Initiator) Validate() error {
	if len(in.Dims) == 0 {
		return fmt.Errorf("gen: initiator has no modes")
	}
	cells := 1
	for _, d := range in.Dims {
		if d < 2 {
			return fmt.Errorf("gen: initiator mode size %d < 2", d)
		}
		cells *= d
	}
	if len(in.Probs) != cells {
		return fmt.Errorf("gen: initiator has %d probabilities, want %d", len(in.Probs), cells)
	}
	var sum float64
	for _, p := range in.Probs {
		if p < 0 {
			return fmt.Errorf("gen: negative initiator probability %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("gen: initiator probabilities sum to %v, want 1", sum)
	}
	return nil
}

// cellCoords decomposes a row-major cell index into per-mode coordinates.
func (in *Initiator) cellCoords(cell int, dst []int) {
	for n := len(in.Dims) - 1; n >= 0; n-- {
		dst[n] = cell % in.Dims[n]
		cell /= in.Dims[n]
	}
}

// Kronecker generates a sparse tensor with the given mode sizes and
// (approximately) nnz distinct non-zeros by sampling the stochastic
// Kronecker distribution: each sample descends L levels of the initiator,
// where L is the smallest power covering the largest mode; coordinates
// falling outside dims are stripped and re-drawn, implementing the
// paper's extra-iteration trick for non-power sizes. Values are uniform
// in (0,1]. The result is sorted in natural order with duplicates
// removed (Bernoulli realization: a coordinate appears at most once).
func Kronecker(dims []tensor.Index, nnz int, init *Initiator, rng *rand.Rand) (*tensor.COO, error) {
	if init == nil {
		init = DefaultInitiator(len(dims))
	}
	if err := init.Validate(); err != nil {
		return nil, err
	}
	if len(init.Dims) != len(dims) {
		return nil, fmt.Errorf("gen: initiator order %d, tensor order %d", len(init.Dims), len(dims))
	}
	if nnz < 0 {
		return nil, fmt.Errorf("gen: negative nnz")
	}
	// Levels: enough initiator iterations to cover every mode (the paper's
	// "additional iteration ... and strip off" approach).
	levels := 1
	for n, d := range dims {
		l := int(math.Ceil(math.Log(float64(d)) / math.Log(float64(init.Dims[n]))))
		if l > levels {
			levels = l
		}
	}
	// Cumulative distribution over initiator cells for inverse sampling.
	cdf := make([]float64, len(init.Probs))
	acc := 0.0
	for c, p := range init.Probs {
		acc += p
		cdf[c] = acc
	}

	order := len(dims)
	t := tensor.NewCOO(dims, nnz)
	seen := newCoordSet(dims, nnz)
	idx := make([]tensor.Index, order)
	cc := make([]int, order)

	maxAttempts := 50*nnz + 1000
	for attempts := 0; t.NNZ() < nnz && attempts < maxAttempts; attempts++ {
		for n := range idx {
			idx[n] = 0
		}
		for l := 0; l < levels; l++ {
			cell := sampleCDF(cdf, rng.Float64())
			init.cellCoords(cell, cc)
			for n := 0; n < order; n++ {
				idx[n] = idx[n]*tensor.Index(init.Dims[n]) + tensor.Index(cc[n])
			}
		}
		inRange := true
		for n := 0; n < order; n++ {
			if idx[n] >= dims[n] {
				inRange = false
				break
			}
		}
		if !inRange {
			continue // strip: coordinate outside the requested size
		}
		if !seen.add(idx) {
			continue
		}
		t.Append(idx, tensor.Value(1-rng.Float64()))
	}
	t.SortNatural()
	return t, nil
}

func sampleCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
