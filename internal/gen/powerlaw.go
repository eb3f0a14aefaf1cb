package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// PowerLawConfig configures the biased power-law generator (§4.2.2),
// extended from the FireHose streaming benchmark's biased generator. The
// generator emits a stream of coordinates whose sparse (hyper-sparse)
// modes follow a power-law distribution while the dense modes are small
// and uniformly covered — combining the per-slice sparse graphs into a
// higher-order hyper-graph tensor.
type PowerLawConfig struct {
	// Dims holds the mode sizes.
	Dims []tensor.Index
	// SparseModes lists the modes whose indices follow the power law
	// (the equidimensional hyper-sparse modes of the paper's irregular
	// tensors); the remaining modes are sampled uniformly (the "entirely
	// dense and smaller" modes).
	SparseModes []int
	// Exponent is the power-law (Zipf) exponent; must be > 1. The
	// default 1.5 reproduces heavy skew without degenerating to a single
	// hub.
	Exponent float64
	// NNZ is the number of distinct non-zeros to generate.
	NNZ int
}

// DefaultExponent is the Zipf exponent used when Exponent is zero.
const DefaultExponent = 1.5

// PowerLaw generates a sparse tensor per the configuration. Values are
// uniform in (0,1]; the result is sorted in natural order and duplicate
// coordinates are removed.
func PowerLaw(cfg PowerLawConfig, rng *rand.Rand) (*tensor.COO, error) {
	if len(cfg.Dims) == 0 {
		return nil, fmt.Errorf("gen: power law needs at least one mode")
	}
	if cfg.NNZ < 0 {
		return nil, fmt.Errorf("gen: negative nnz")
	}
	exp := cfg.Exponent
	if exp == 0 {
		exp = DefaultExponent
	}
	if exp <= 1 {
		return nil, fmt.Errorf("gen: power-law exponent must be > 1, got %v", exp)
	}
	order := len(cfg.Dims)
	isSparse := make([]bool, order)
	for _, n := range cfg.SparseModes {
		if n < 0 || n >= order {
			return nil, fmt.Errorf("gen: sparse mode %d out of range", n)
		}
		isSparse[n] = true
	}
	// One Zipf stream per sparse mode; a shared permutation would bias
	// diagonal entries, so each mode draws independently and is scattered
	// through an independent random relabeling to avoid the "index 0 is
	// always the hub" artifact across modes.
	zipfs := make([]*rand.Zipf, order)
	relabel := make([][]tensor.Index, order)
	for n := 0; n < order; n++ {
		if !isSparse[n] {
			continue
		}
		if cfg.Dims[n] < 2 {
			return nil, fmt.Errorf("gen: sparse mode %d has size %d < 2", n, cfg.Dims[n])
		}
		zipfs[n] = rand.NewZipf(rng, exp, 1, uint64(cfg.Dims[n]-1))
		relabel[n] = randomPermutation(int(cfg.Dims[n]), rng)
	}

	t := tensor.NewCOO(cfg.Dims, cfg.NNZ)
	seen := newCoordSet(cfg.Dims, cfg.NNZ)
	idx := make([]tensor.Index, order)
	maxAttempts := 50*cfg.NNZ + 1000
	for attempts := 0; t.NNZ() < cfg.NNZ && attempts < maxAttempts; attempts++ {
		for n := 0; n < order; n++ {
			if isSparse[n] {
				idx[n] = relabel[n][zipfs[n].Uint64()]
			} else {
				idx[n] = tensor.Index(rng.Intn(int(cfg.Dims[n])))
			}
		}
		if !seen.add(idx) {
			continue
		}
		t.Append(idx, tensor.Value(1-rng.Float64()))
	}
	t.SortNatural()
	return t, nil
}

func randomPermutation(n int, rng *rand.Rand) []tensor.Index {
	p := make([]tensor.Index, n)
	for i := range p {
		p[i] = tensor.Index(i)
	}
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// DegreeSkew measures the ratio of the heaviest mode-n index count to the
// mean count — a quick power-law witness used by tests and dataset
// summaries (≫1 for power-law modes, ≈1 for uniform ones).
func DegreeSkew(t *tensor.COO, n int) float64 {
	if t.NNZ() == 0 {
		return 0
	}
	counts := make(map[tensor.Index]int)
	for _, i := range t.Inds[n] {
		counts[i]++
	}
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	mean := float64(t.NNZ()) / float64(len(counts))
	return float64(maxC) / mean
}
