// Package algo builds the tensor methods that motivate the benchmark
// kernels (§2): CANDECOMP/PARAFAC decomposition via alternating least
// squares (CP-ALS, whose bottleneck is Mttkrp), the higher-order power
// method (rank-1 decomposition via Ttv chains, §2.3), and the Tucker-style
// TTM-chain (§7). They serve both as extension features and as end-to-end
// consumers of the kernel implementations.
package algo

import (
	"errors"
	"math"

	"repro/internal/cpu"
	"repro/internal/tensor"
)

// ErrSingularGram reports a Hadamard-of-Grams matrix that stays
// numerically singular under every ridge of the ladder.
var ErrSingularGram = errors.New("algo: gram matrix numerically singular")

// gramBlock is the row count of the block gramInto works on: R columns
// of 64 float64 stay in L1 for every rank in use.
const gramBlock = 64

// cpWorkspace holds every buffer the dense side of a CP sweep needs; it
// is allocated once per CPALSWith call, so a sweep allocates nothing
// (DESIGN.md §20).
type cpWorkspace struct {
	n            int         // rank R
	grams        [][]float64 // per mode, A_nᵀA_n (R×R)
	v, inv, elim []float64   // R×R: ⊛ of grams, its inverse, scratch (elimination, then the Go product's transposed operand)
	occ          [][]int     // per mode, ascending: the rows whose slice holds a non-zero
	rows         []float64   // max|occ|×R: the product before it is scaled and rounded, k-th occupied row at k·R
	row, sumsq   []float64   // R: one input row widened; column sums of squares
	block        []float64   // R×gramBlock: rounded factor rows, transposed (row-major for gramAVX2)
}

// newCPWorkspace takes the initial factors and, per mode, the rows an
// update visits (occupiedRows). The other rows belong to empty slices:
// their Mttkrp row is zero, so every update would write +0 to them and
// add ±0 to each sum. They are cleared here, once, after the initial
// grams — which the first sweep reads over the full random factors.
func newCPWorkspace(factors []*tensor.Matrix, rank int, occ [][]int) *cpWorkspace {
	maxRows, maxOcc := 0, 0
	for m, f := range factors {
		maxRows, maxOcc = max(maxRows, f.Rows), max(maxOcc, len(occ[m]))
	}
	sq := rank * rank
	w := &cpWorkspace{
		n: rank, grams: make([][]float64, len(factors)),
		v: make([]float64, sq), inv: make([]float64, sq), elim: make([]float64, sq),
		occ: occ, rows: make([]float64, maxOcc*rank), row: make([]float64, rank), sumsq: make([]float64, rank),
		block: make([]float64, gramBlock*rank),
	}
	all := make([]int, maxRows)
	for i := range all {
		all[i] = i
	}
	for m, f := range factors {
		w.grams[m] = make([]float64, sq)
		if m > 0 { // mode 0's first update overwrites grams[0] before anything reads it
			w.gramInto(w.grams[m], f, nil, all[:f.Rows])
		}
		next := 0
		for _, i := range occ[m] {
			clear(f.Data[next*rank : i*rank])
			next = i + 1
		}
		clear(f.Data[next*rank:])
	}
	return w
}

// occupiedRows lists, per mode and ascending, the indices that occur in
// x: the rows of a factor whose slice of x holds a non-zero.
func occupiedRows(x *tensor.COO) [][]int {
	occ := make([][]int, x.Order())
	for n, inds := range x.Inds {
		seen := make([]bool, x.Dims[n])
		for _, i := range inds {
			seen[i] = true
		}
		cnt := 0
		for _, s := range seen {
			if s {
				cnt++
			}
		}
		occ[n] = make([]int, 0, cnt)
		for i, s := range seen {
			if s {
				occ[n] = append(occ[n], i)
			}
		}
	}
	return occ
}

// hadamard sets w.v = ⊛_{m≠skip} grams[m] (skip = -1 keeps all).
func (w *cpWorkspace) hadamard(skip int) {
	for i := range w.v {
		w.v[i] = 1
	}
	for m, g := range w.grams {
		if m == skip {
			continue
		}
		for i, x := range g {
			w.v[i] *= x
		}
	}
}

// invertSPD sets inv = a⁻¹ for a symmetric positive-(semi)definite n×n a
// by Gauss-Jordan elimination with partial pivoting in elim. A pivot
// below n·ε·max|diag| counts as breakdown and retries with the next ridge
// of a ladder scaled by max|diag| — the standard CP-ALS guard against
// rank-deficient Gram products.
func invertSPD(a, elim, inv []float64, n int) error {
	var scale float64
	for i := 0; i < n; i++ {
		scale = math.Max(scale, math.Abs(a[i*n+i]))
	}
	for _, ridge := range [...]float64{0, 1e-12, 1e-8, 1e-4} {
		copy(elim, a)
		for i := 0; i < n; i++ {
			elim[i*n+i] += ridge * scale
		}
		if gaussJordan(elim, inv, n, float64(n)*0x1p-52*scale) {
			return nil
		}
	}
	return ErrSingularGram
}

// gaussJordan reduces m to the identity while applying the same row
// operations to inv; it reports false at the first pivot not above tiny.
func gaussJordan(m, inv []float64, n int, tiny float64) bool {
	clear(inv)
	for i := 0; i < n; i++ {
		inv[i*n+i] = 1
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		p := col
		best := math.Abs(m[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m[r*n+col]); v > best {
				best, p = v, r
			}
		}
		if !(best > tiny) {
			return false
		}
		if p != col {
			swapRows(m, n, p, col)
			swapRows(inv, n, p, col)
		}
		piv := m[col*n+col]
		for j := 0; j < n; j++ {
			m[col*n+j] /= piv
			inv[col*n+j] /= piv
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r*n+col]
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				m[r*n+j] -= f * m[col*n+j]
				inv[r*n+j] -= f * inv[col*n+j]
			}
		}
	}
	return true
}

func swapRows(m []float64, n, a, b int) {
	for j := 0; j < n; j++ {
		m[a*n+j], m[b*n+j] = m[b*n+j], m[a*n+j]
	}
}

// mulSquare sets the k-th row of w.rows to row occ[k] of src times the
// R×R sq, and w.sumsq to the product's column sums of squares,
// accumulated in row order (pass 1 of updateFactor). With AVX2 one
// assembly call computes the first R&^3 columns and the loop below the
// others. The loop transposes sq into w.elim and widens each input row
// once, so dot4 holds four output columns in registers with k innermost:
// four independent add chains over contiguous operands, every output
// still summed in ascending k.
func (w *cpWorkspace) mulSquare(src []tensor.Value, sq []float64, occ []int) {
	n, in, sqT := w.n, w.row, w.elim
	j0 := 0 // the first column the loop computes
	if cpu.AVX2 && n >= 4 {
		for _, i := range occ {
			_ = src[i*n : (i+1)*n] // the assembly does not check its rows
		}
		mulSquareAVX2(w.rows[:len(occ)*n], w.sumsq[:n], src, sq[:n*n], occ, n)
		if j0 = n &^ 3; j0 == n {
			return
		}
	}
	for k := 0; k < n; k++ {
		for j := j0; j < n; j++ {
			sqT[j*n+k] = sq[k*n+j]
		}
	}
	clear(w.sumsq[j0:])
	for at, i := range occ {
		for k, x := range src[i*n : (i+1)*n] {
			in[k] = float64(x)
		}
		out := w.rows[at*n : (at+1)*n]
		clear(out[j0:])
		j := j0
		for ; j+4 <= n; j += 4 {
			dot4(out[j:j+4], in, sqT[j*n:], n)
		}
		for ; j < n; j++ {
			dot1(out[j:], in, sqT[j*n:])
		}
		for r := j0; r < n; r++ {
			w.sumsq[r] += out[r] * out[r]
		}
	}
}

// gramInto sets g = aᵀa in float64 over the rows occ of a; the others
// must be zero for g to be the whole gram. With scale != nil it first
// writes those rows as w.rows · diag(scale) rounded to tensor.Value (pass
// 2 of updateFactor). Rows are taken gramBlock at a time and transposed,
// so the upper triangle accumulates four (p, q..q+3) entries in registers
// over contiguous columns, each entry still summed in ascending row order.
// With AVX2, gramRowMajor takes each block instead.
func (w *cpWorkspace) gramInto(g []float64, a *tensor.Matrix, scale []float64, occ []int) {
	n := w.n
	simd := cpu.AVX2 && n >= 4
	clear(g)
	for lo := 0; lo < len(occ); lo += gramBlock {
		cnt := min(gramBlock, len(occ)-lo)
		if simd {
			var prod []float64
			if scale != nil { // sliced to the lengths the assembly reads
				prod, scale = w.rows[lo*n:(lo+cnt)*n], scale[:n]
			}
			w.gramRowMajor(g, a.Data, prod, scale, occ[lo:lo+cnt])
			continue
		}
		for i, row := range occ[lo : lo+cnt] {
			vals := a.Data[row*n : (row+1)*n]
			if scale != nil {
				for r, x := range w.rows[(lo+i)*n : (lo+i+1)*n] {
					vals[r] = tensor.Value(x * scale[r])
				}
			}
			for r, x := range vals {
				w.block[r*gramBlock+i] = float64(x)
			}
		}
		for p := 0; p < n; p++ {
			bp := w.block[p*gramBlock:][:cnt]
			// Groups start at a multiple of four: the entries this puts
			// below the diagonal cost no extra dot4 and the mirror
			// overwrites them.
			q := p &^ 3
			for ; q+4 <= n; q += 4 {
				dot4(g[p*n+q:p*n+q+4], bp, w.block[q*gramBlock:], gramBlock)
			}
			for q = max(q, p); q < n; q++ {
				dot1(g[p*n+q:], bp, w.block[q*gramBlock:])
			}
		}
	}
	for p := 0; p < n; p++ {
		for q := 0; q < p; q++ {
			g[p*n+q] = g[q*n+p]
		}
	}
}

// gramRowMajor is one block of gramInto on the AVX2 path: the rows occ of
// a (with scale, first set to prod · diag(scale) rounded) are widened into
// w.block row-major and their gram added to g. The assembly takes the
// first R&^3 columns, the loops here the others; every entry is summed in
// ascending row order, as in gramInto's loops.
func (w *cpWorkspace) gramRowMajor(g []float64, a []tensor.Value, prod, scale []float64, occ []int) {
	n, c4 := w.n, w.n&^3
	blk := w.block[:len(occ)*n]
	for i, row := range occ {
		vals := a[row*n : (row+1)*n] // also the assembly's bounds check
		for r := c4; r < n; r++ {
			if scale != nil {
				vals[r] = tensor.Value(prod[i*n+r] * scale[r])
			}
			blk[i*n+r] = float64(vals[r])
		}
	}
	roundRowsAVX2(blk, prod, scale, a, occ, n)
	gramAVX2(g[:n*n], blk, n, len(occ))
	for q := c4; q < n; q++ {
		for p := 0; p <= q; p++ {
			s := g[p*n+q]
			for i := 0; i < len(blk); i += n {
				s += blk[i+p] * blk[i+q]
			}
			g[p*n+q] = s
		}
	}
}

// updateFactor finishes one ALS mode over its occupied rows occ: an =
// mt · w.inv with unit-norm columns, lambda the norms, g = anᵀan. Every
// sum runs in the order of the three-pass update it replaced (the oracle
// in update_test.go) less terms that are ±0, so the results are
// bit-identical to it.
func (w *cpWorkspace) updateFactor(mt, an *tensor.Matrix, lambda, g []float64, occ []int) {
	w.mulSquare(mt.Data, w.inv, occ)
	for r, s := range w.sumsq { // sumsq becomes the column scales 1/norm
		norm := math.Sqrt(s)
		lambda[r] = norm
		w.sumsq[r] = 0
		if norm > 0 {
			w.sumsq[r] = 1 / norm
		}
	}
	w.gramInto(g, an, w.sumsq, occ)
}

// dot4 adds x·b_c to acc[c] for the four columns b_c = b[c·stride:] of b,
// each sum running in ascending index order in a register of its own.
func dot4(acc, x, b []float64, stride int) {
	b0, b1, b2, b3 := b[:len(x)], b[stride:][:len(x)], b[2*stride:][:len(x)], b[3*stride:][:len(x)]
	g0, g1, g2, g3 := acc[0], acc[1], acc[2], acc[3]
	for i, v := range x {
		g0 += v * b0[i]
		g1 += v * b1[i]
		g2 += v * b2[i]
		g3 += v * b3[i]
	}
	acc[0], acc[1], acc[2], acc[3] = g0, g1, g2, g3
}

// dot1 is dot4 for a single column.
func dot1(acc, x, b []float64) {
	s := acc[0]
	for i, v := range b[:len(x)] {
		s += x[i] * v
	}
	acc[0] = s
}
