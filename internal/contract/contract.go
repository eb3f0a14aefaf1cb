// Package contract implements the sparse × sparse tensor contraction of
// the paper's future-work list (§7): two sparse tensors contracted along
// arbitrary mode pairs. Ttm is the dense special case (§2.4); this is the
// fully sparse generalization, implemented with a hash join over the
// contracted coordinates.
package contract

import (
	"fmt"

	"repro/internal/tensor"
)

// Contract computes Z = Σ X ∘ Y over the paired modes: xModes[i] of X is
// summed against yModes[i] of Y. The output's modes are X's free modes
// (in order) followed by Y's free modes. Both operands may be in any
// non-zero order; the result is returned sorted in natural order.
//
// The algorithm is an M_Y-space hash join: Y's non-zeros are bucketed by
// their contracted coordinates, then each X non-zero probes its bucket
// and emits products, which are accumulated by output coordinate.
func Contract(x, y *tensor.COO, xModes, yModes []int) (*tensor.COO, error) {
	if len(xModes) != len(yModes) {
		return nil, fmt.Errorf("contract: %d X modes vs %d Y modes", len(xModes), len(yModes))
	}
	if len(xModes) == 0 {
		return nil, fmt.Errorf("contract: need at least one contracted mode pair (outer products explode)")
	}
	if err := checkModes(x, xModes); err != nil {
		return nil, err
	}
	if err := checkModes(y, yModes); err != nil {
		return nil, err
	}
	for i := range xModes {
		if x.Dims[xModes[i]] != y.Dims[yModes[i]] {
			return nil, fmt.Errorf("contract: mode pair (%d,%d) has sizes %d vs %d",
				xModes[i], yModes[i], x.Dims[xModes[i]], y.Dims[yModes[i]])
		}
	}
	xFree := freeModes(x.Order(), xModes)
	yFree := freeModes(y.Order(), yModes)
	outOrder := len(xFree) + len(yFree)
	if outOrder == 0 {
		return nil, fmt.Errorf("contract: full contraction yields a scalar, not a tensor")
	}

	// Bucket Y by contracted coordinates.
	type yEntry struct {
		free []tensor.Index
		val  tensor.Value
	}
	buckets := make(map[string][]yEntry, y.NNZ())
	ykey := make([]byte, 4*len(yModes))
	for m := 0; m < y.NNZ(); m++ {
		for i, n := range yModes {
			putIndex(ykey, i, y.Inds[n][m])
		}
		free := make([]tensor.Index, len(yFree))
		for i, n := range yFree {
			free[i] = y.Inds[n][m]
		}
		buckets[string(ykey)] = append(buckets[string(ykey)], yEntry{free, y.Vals[m]})
	}

	// Probe with X, accumulating by output coordinate.
	acc := make(map[string]tensor.Value)
	xkey := make([]byte, 4*len(xModes))
	okey := make([]byte, 4*outOrder)
	for m := 0; m < x.NNZ(); m++ {
		for i, n := range xModes {
			putIndex(xkey, i, x.Inds[n][m])
		}
		bucket, ok := buckets[string(xkey)]
		if !ok {
			continue
		}
		for i, n := range xFree {
			putIndex(okey, i, x.Inds[n][m])
		}
		xv := x.Vals[m]
		for _, ye := range bucket {
			for i, v := range ye.free {
				putIndex(okey, len(xFree)+i, v)
			}
			acc[string(okey)] += xv * ye.val
		}
	}

	// Materialize the output.
	outDims := make([]tensor.Index, 0, outOrder)
	for _, n := range xFree {
		outDims = append(outDims, x.Dims[n])
	}
	for _, n := range yFree {
		outDims = append(outDims, y.Dims[n])
	}
	out := tensor.NewCOO(outDims, len(acc))
	idx := make([]tensor.Index, outOrder)
	for k, v := range acc {
		if v == 0 {
			continue
		}
		for i := range idx {
			idx[i] = getIndex([]byte(k), i)
		}
		out.Append(idx, v)
	}
	out.SortNatural()
	return out, nil
}

func checkModes(t *tensor.COO, modes []int) error {
	seen := make(map[int]bool, len(modes))
	for _, n := range modes {
		if n < 0 || n >= t.Order() {
			return fmt.Errorf("contract: mode %d out of range for order-%d tensor", n, t.Order())
		}
		if seen[n] {
			return fmt.Errorf("contract: mode %d listed twice", n)
		}
		seen[n] = true
	}
	return nil
}

func freeModes(order int, contracted []int) []int {
	used := make([]bool, order)
	for _, n := range contracted {
		used[n] = true
	}
	free := make([]int, 0, order-len(contracted))
	for n := 0; n < order; n++ {
		if !used[n] {
			free = append(free, n)
		}
	}
	return free
}

func putIndex(key []byte, slot int, v tensor.Index) {
	k := 4 * slot
	key[k], key[k+1], key[k+2], key[k+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func getIndex(key []byte, slot int) tensor.Index {
	k := 4 * slot
	return tensor.Index(key[k]) | tensor.Index(key[k+1])<<8 | tensor.Index(key[k+2])<<16 | tensor.Index(key[k+3])<<24
}
