package kernelreg

import (
	"cmp"
	"fmt"
	"math"

	"repro/internal/hicoo"
	"repro/internal/resilience"
	"repro/internal/tensor"
)

// Canon is the canonical form of a kernel output: a sparse output's
// non-zeros in natural order (duplicates kept), or a dense output as it
// is. nil stands for a missing output.
type Canon *canonical

type canonical struct {
	coo *tensor.COO
	mat *tensor.Matrix
}

// CanonOf converts a kernel output object (dense matrix, COO, HiCOO,
// semi-sparse forms) into canonical form for Compare; out-of-package
// harnesses verify through it against Workbench.Reference. A nil or
// unknown output gives nil, which Compare treats as all zeros, so an
// output that was never produced cannot verify.
func CanonOf(out any) Canon {
	var t *tensor.COO
	switch o := out.(type) {
	case *tensor.Matrix:
		if o == nil {
			return nil
		}
		return &canonical{mat: o}
	case *tensor.COO:
		t = o
	case *hicoo.HiCOO:
		t = o.ToCOO()
	case *tensor.SemiCOO:
		t = o.ToCOO()
	case *hicoo.SemiHiCOO:
		t = o.ToSemiCOO().ToCOO()
	}
	if t == nil {
		return nil
	}
	return &canonical{coo: t.SortedBy(tensor.OtherModes(t.Order(), -1))}
}

// valsOf extracts the raw value array of a variant output for the finite
// scan; nil for unknown output kinds.
func valsOf(out any) []tensor.Value {
	switch o := out.(type) {
	case *tensor.COO:
		return o.Vals
	case *hicoo.HiCOO:
		return o.Vals
	case *tensor.SemiCOO:
		return o.Vals
	case *hicoo.SemiHiCOO:
		return o.Vals
	case *tensor.Matrix:
		return o.Data
	}
	return nil
}

// checkFinite is the standard Instance.Check: scan whichever output the
// last rung wrote for NaN/Inf.
func checkFinite(out any) error {
	if out == nil {
		return fmt.Errorf("kernelreg: no output to check: %w", resilience.ErrNonFinite)
	}
	return resilience.CheckFinite(valsOf(out))
}

// Compare returns the worst relative deviation between two canonical
// outputs (absolute below magnitude 1) over the union of their
// coordinates, duplicates summed (tensor.MaxDeviation). A missing side
// compares as all zeros; a sparse and a dense output share no
// coordinate; matrices compare by (row, col). A NaN or an infinity on
// either side deviates by +Inf.
func Compare(a, b Canon) float64 {
	if a == nil {
		a = &canonical{}
	}
	if b == nil {
		b = &canonical{}
	}
	switch {
	case a.mat == nil && b.mat == nil:
		return tensor.MaxDeviation(cmp.Or(a.coo, &tensor.COO{}), cmp.Or(b.coo, &tensor.COO{}), relDev)
	case a.coo != nil || b.coo != nil:
		return max(Compare(a, nil), Compare(nil, b))
	}
	return matDev(cmp.Or(a.mat, &tensor.Matrix{}), cmp.Or(b.mat, &tensor.Matrix{}))
}

// matDev is Compare on two matrices; entries outside a matrix's shape
// compare as 0.
func matDev(a, b *tensor.Matrix) float64 {
	var worst float64
	for i := range max(a.Rows, b.Rows) {
		for j := range max(a.Cols, b.Cols) {
			x, y := entry(a, i, j), entry(b, i, j)
			if math.IsNaN((x - x) + (y - y)) { // x or y is NaN or infinite
				return math.Inf(1)
			}
			worst = max(worst, relDev(x, y))
		}
	}
	return worst
}

// entry is m's (i, j) entry, 0 outside its shape.
func entry(m *tensor.Matrix, i, j int) float64 {
	if i < m.Rows && j < m.Cols {
		return float64(m.Row(i)[j])
	}
	return 0
}

func relDev(a, b float64) float64 {
	return math.Abs(a-b) / max(math.Abs(a), math.Abs(b), 1)
}
