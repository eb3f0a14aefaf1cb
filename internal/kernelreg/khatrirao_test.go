package kernelreg

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/roofline"
	"repro/internal/tensor"
	"repro/internal/tensortest"
)

// TestMttkrpIsMatricizedTimesKhatriRao holds the sequential rung of
// the COO, HiCOO, CSF and bCSF Mttkrp cells to the definition the paper
// states, M = X_(n) · (⊙_{m≠n} A_m), computed densely: the mode-n
// unfolding times the Khatri-Rao product of the other factors, in the
// unfolding's column order (the first other mode varies fastest). The
// tensors are order 3 and 4 with empty slices in every mode; values and
// factor entries are small non-zero integers, so every product and
// partial sum is exact in float32 and the outputs must agree bit for
// bit, on the Go loops and on the AVX2 bodies.
func TestMttkrpIsMatricizedTimesKhatriRao(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(13))
	for _, dims := range [][]tensor.Index{{8, 6, 5}, {6, 5, 6, 4}} {
		x := smallIntegerTensor(dims, 40, rng)
		for _, r := range []int{1, 5, 16} {
			mats := make([]*tensor.Matrix, len(dims))
			for n, d := range dims {
				mats[n] = tensor.NewMatrix(int(d), r)
				for i := range mats[n].Data {
					mats[n].Data[i] = tensor.Value([]int{-2, -1, 1, 2}[rng.Intn(4)])
				}
			}
			for mode := range dims {
				want := denseMttkrp(x, mats, mode)
				for _, asm := range tensortest.BodySides() {
					tensortest.WithAVX2(asm, func() {
						cfg := DefaultConfig()
						cfg.R, cfg.BlockBits = r, 1
						wb := NewWorkbench(x, cfg)
						wb.mats = mats
						for _, f := range []roofline.Format{roofline.COO, roofline.HiCOO, roofline.CSF, roofline.BCSF} {
							where := fmt.Sprintf("order %d R %d mode %d %s asm %v", len(dims), r, mode, f, asm)
							v, err := Lookup(roofline.Mttkrp, f, OMP)
							if err != nil {
								t.Fatal(err)
							}
							inst, err := v.Prepare(wb, mode)
							if err != nil {
								t.Fatalf("%s: %v", where, err)
							}
							if err := inst.Serial(ctx); err != nil {
								t.Fatalf("%s: %v", where, err)
							}
							got := inst.out().(*tensor.Matrix)
							for i, w := range want {
								if math.Float32bits(got.Data[i]) != math.Float32bits(w) {
									t.Fatalf("%s: M[%d,%d] = %v, X_(n)·KR gives %v", where, i/r, i%r, got.Data[i], w)
								}
							}
						}
					})
				}
			}
		}
	}
}

// smallIntegerTensor draws nnz distinct entries with values in
// ±{1..4}, leaving slice 1 and the last slice of every mode empty.
func smallIntegerTensor(dims []tensor.Index, nnz int, rng *rand.Rand) *tensor.COO {
	x := tensor.NewCOO(dims, nnz)
	idx := make([]tensor.Index, len(dims))
	seen := map[string]bool{}
	for len(seen) < nnz {
		for n, d := range dims {
			if idx[n] = tensor.Index(rng.Intn(int(d) - 2)); idx[n] >= 1 {
				idx[n]++
			}
		}
		if key := fmt.Sprint(idx); !seen[key] {
			seen[key] = true
			x.Append(idx, tensor.Value((1+rng.Intn(4))*(1-2*rng.Intn(2))))
		}
	}
	return x
}

// denseMttkrp returns X_(n) · (⊙_{m≠n} A_m), row-major, from the dense
// unfolding and the explicit Khatri-Rao product.
func denseMttkrp(x *tensor.COO, mats []*tensor.Matrix, mode int) []tensor.Value {
	r := mats[0].Cols
	others := tensor.OtherModes(x.Order(), mode)
	cols := 1
	for _, m := range others {
		cols *= int(x.Dims[m])
	}
	// column j of the unfolding: the other modes' indices with the first
	// varying fastest.
	col := func(idx []int) int {
		j, stride := 0, 1
		for k, m := range others {
			j += idx[k] * stride
			stride *= int(x.Dims[m])
		}
		return j
	}
	rows := int(x.Dims[mode])
	unfold := make([]float64, rows*cols)
	idx := make([]int, len(others))
	for e := 0; e < x.NNZ(); e++ {
		for k, m := range others {
			idx[k] = int(x.Inds[m][e])
		}
		unfold[int(x.Inds[mode][e])*cols+col(idx)] += float64(x.Vals[e])
	}
	kr := make([]float64, cols*r)
	for j := 0; j < cols; j++ {
		rem := j
		for k, m := range others {
			idx[k] = rem % int(x.Dims[m])
			rem /= int(x.Dims[m])
		}
		for c := 0; c < r; c++ {
			p := 1.0
			for k, m := range others {
				p *= float64(mats[m].Data[idx[k]*r+c])
			}
			kr[j*r+c] = p
		}
	}
	out := make([]tensor.Value, rows*r)
	for i := 0; i < rows; i++ {
		for c := 0; c < r; c++ {
			var s float64
			for j := 0; j < cols; j++ {
				s += unfold[i*cols+j] * kr[j*r+c]
			}
			out[i*r+c] = tensor.Value(s)
		}
	}
	return out
}
