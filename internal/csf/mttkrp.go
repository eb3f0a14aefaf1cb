package csf

import (
	"errors"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Tree is the plain fiber tree root-mode Mttkrp walks (DESIGN.md §23). A
// CSF tensor is one as it stands — CSF.Tree aliases its arrays — and
// levels.PrepareMttkrp resolves any other hierarchy into one.
type Tree struct {
	Dims  []tensor.Index // size of every tensor mode
	Modes []int          // tree level → tensor mode; Modes[0] is the output mode
	// Ids[0][i] is the output row root i sums into, Ids[l][i] the row of
	// factor Modes[l] that level-l node i multiplies by.
	Ids [][]tensor.Index
	// Ptr[l][i], Ptr[l][i+1] bound node i's children in level l+1.
	Ptr  [][]int64
	Vals []tensor.Value // parallel to the leaf level
	// Span, when set, groups the roots into the parallel loop's units:
	// unit u owns roots [Span[u], Span[u+1]). Nil: every root is a unit.
	Span []int64
	// Shared says roots of different units may name the same output row,
	// so units running concurrently commit atomically.
	Shared bool
}

// Tree returns the tensor as Mttkrp's fiber tree, aliasing its arrays.
func (c *CSF) Tree() Tree {
	return Tree{Dims: c.Dims, Modes: c.ModeOrder, Ids: c.FIds, Ptr: c.FPtr, Vals: c.Vals}
}

// ErrMttkrp is the error of a Mttkrp that cannot run on its operands: a
// tree with no level below the roots, R < 1, a missing or mis-shaped factor.
var ErrMttkrp = errors.New("csf: cannot run Mttkrp")

// MttkrpPlan is a prepared root-mode Mttkrp over a fiber tree. It owns the
// output, which every execution rewrites; root subtrees own their rows, so
// the parallel loop needs no atomics — the advantage over COO-Mttkrp.
type MttkrpPlan struct {
	R   int            // factor-matrix column count
	Out *tensor.Matrix // Dims[Modes[0]] × R

	t     Tree
	leaf  int              // the deepest level
	units int              // length of the parallel loop
	u     [][]tensor.Value // per level, its factor's data; bound by every execution
	rows  []int            // per level, the rows its factor's data holds; ditto
	ones  []tensor.Value   // the factor row of a root that holds leaves directly
	body  treeBody         // the deepest two levels as the AVX2 bodies read them
	asm   bool             // this execution runs the AVX2 bodies
	tasks []task           // the units of MttkrpRootBalanced; nil: roots
	// empty is 1 if a fiber holds no leaf (a dense level's absent coordinate),
	// -1 if none does — chains' test needs that — and 0 before the first begin.
	empty int8
}

// PrepareMttkrp checks the tree and R and allocates the output.
func PrepareMttkrp(t Tree, r int) (*MttkrpPlan, error) {
	if len(t.Ids) < 2 {
		return nil, fmt.Errorf("%w: needs an order >= 2 tensor", ErrMttkrp)
	}
	if r < 1 {
		return nil, fmt.Errorf("%w: needs R >= 1, got %d", ErrMttkrp, r)
	}
	p := &MttkrpPlan{R: r, Out: tensor.NewMatrix(int(t.Dims[t.Modes[0]]), r), t: t, leaf: len(t.Ids) - 1,
		units: len(t.Ids[0]), u: make([][]tensor.Value, len(t.Ids)), rows: make([]int, len(t.Ids)), ones: make([]tensor.Value, r)}
	for i := range p.ones {
		p.ones[i] = 1
	}
	if t.Span != nil {
		p.units = len(t.Span) - 1
	}
	return p, nil
}

// FactorCols returns R as a one-shot call's operands give it: the columns
// of the first factor present other than the output mode's; 0 for none.
func FactorCols(mats []*tensor.Matrix, mode int) int {
	for n, u := range mats {
		if n != mode && u != nil {
			return u.Cols
		}
	}
	return 0
}

// FlopCount returns the Table 1 work N·M·R, as the COO kernel counts it.
func (p *MttkrpPlan) FlopCount() int64 {
	return int64(len(p.t.Dims)) * int64(len(p.t.Vals)) * int64(p.R)
}

// begin checks the factor matrices — one per mode, Dims[n] × R, the
// output mode's entry ignored — binds their data and row counts to the
// tree's levels and the AVX2 bodies, and clears the output. The first
// one also looks for an empty fiber.
func (p *MttkrpPlan) begin(mats []*tensor.Matrix) error {
	t := &p.t
	if len(mats) != len(t.Dims) {
		return fmt.Errorf("%w: got %d factor matrices, want %d", ErrMttkrp, len(mats), len(t.Dims))
	}
	for l := 1; l <= p.leaf; l++ {
		n := t.Modes[l]
		if u := mats[n]; u == nil || u.Rows != int(t.Dims[n]) || u.Cols != p.R {
			return fmt.Errorf("%w: factor %d is %v, want %dx%d", ErrMttkrp, n, u, t.Dims[n], p.R)
		}
		// Dims[n] rows, unless the matrix holds less data than its shape.
		p.u[l], p.rows[l] = mats[n].Data, min(int(t.Dims[n]), len(mats[n].Data)/p.R)
	}
	f := p.leaf - 1
	p.body = treeBody{kid: t.Ids[p.leaf], vals: t.Vals, ku: p.u[p.leaf], kuRows: p.rows[p.leaf],
		fptr: t.Ptr[f], fid: t.Ids[f], fu: p.u[f], fuRows: p.rows[f]}
	p.asm = cpu.AVX2 && 8 <= p.R && p.R <= 1<<16 && len(t.Ids[p.leaf]) == len(t.Vals)
	if p.empty == 0 {
		p.empty = -1
		for f, fptr := 1, t.Ptr[p.leaf-1]; f < len(fptr) && p.empty < 0; f++ {
			if fptr[f] == fptr[f-1] {
				p.empty = 1
			}
		}
	}
	p.Out.Zero()
	return nil
}

// ExecuteSeq runs the kernel on the calling goroutine.
func (p *MttkrpPlan) ExecuteSeq(mats []*tensor.Matrix) (*tensor.Matrix, error) {
	if err := p.begin(mats); err != nil {
		return nil, err
	}
	ws := parallel.SharedWorkspace()
	set := ws.Set(1, p.leaf*p.R)
	p.run(0, p.units, set.Bufs[0], false)
	ws.PutSet(set)
	return p.Out, nil
}

// ExecuteOMP runs the kernel as a parallel loop over the tree's units. A
// cancelled opt.Ctx leaves partial sums in Out and returns no matrix.
func (p *MttkrpPlan) ExecuteOMP(mats []*tensor.Matrix, opt parallel.Options) (*tensor.Matrix, error) {
	if err := p.begin(mats); err != nil {
		return nil, err
	}
	opt.Threads = parallel.ResolveThreads(p.units, opt)
	// Level scratch is per worker and pooled: a warm pool allocates nothing.
	ws := parallel.SharedWorkspace()
	set := ws.Set(opt.Threads, p.leaf*p.R)
	err := parallel.For(p.units, opt, func(lo, hi, w int) { p.run(lo, hi, set.Bufs[w], opt.Threads > 1) })
	ws.PutSet(set)
	if err != nil {
		return nil, err
	}
	return p.Out, nil
}

// run adds units [lo, hi) to the output: a root's children — all, or one
// balanced task's share — summed in worker-private scratch, then committed
// to the root's row once. Only a commit that can meet another worker's on
// the same row is atomic: shared rows, or a task covering part of its root.
func (p *MttkrpPlan) run(lo, hi int, scratch []tensor.Value, concurrent bool) {
	t, first, r := &p.t, p.t.Ptr[0], p.R
	if p.tasks == nil && t.Span != nil {
		lo, hi = int(t.Span[lo]), int(t.Span[hi])
	}
	g := scratch[:r]
	for i := lo; i < hi; i++ {
		k := task{root: i}
		if p.tasks != nil {
			k = p.tasks[i]
		} else {
			k.lo, k.hi = first[i], first[i+1]
		}
		atomicUpd := concurrent && (t.Shared || k.lo != first[k.root] || k.hi != first[k.root+1])
		clear(g)
		p.walk(1, k.lo, k.hi, g, scratch[r:])
		row := p.Out.Data[int(t.Ids[0][k.root])*r:][:r]
		for c, v := range g {
			if atomicUpd {
				parallel.AtomicAddFloat32(&row[c], v)
			} else {
				row[c] += v
			}
		}
	}
}

// walk adds Σ_node U(node,:) ⊙ (Σ_child …) over a level's nodes [lo, hi) to
// dst, in node order; scratch holds an r-vector per level down to the fibers.
// Fibers [f0, f1) holding one leaf each — on a tree without empty fibers,
// fptr[f1] − fptr[f0] == f1 − f0 — go to chains, tested per node right above
// the fibers and per range handed to the fiber level (whose dst is +0).
// With the AVX2 bodies, chainNodes sums runs of such nodes and hands back
// the first it does not sum, which the node loop sums as before.
func (p *MttkrpPlan) walk(level int, lo, hi int64, dst, scratch []tensor.Value) {
	t := &p.t
	switch level {
	case p.leaf:
		// Roots that hold leaves directly: [lo, hi) is one fiber under a
		// factor row of ones (x·1 is x, bit for bit).
		span, id := [2]int64{lo, hi}, [1]tensor.Index{}
		p.sumFibers(span[:], id[:], p.ones, 1, dst)
	case p.leaf - 1:
		if fptr := t.Ptr[level]; p.empty < 0 && fptr[hi]-fptr[lo] == hi-lo {
			// One node over the fibers, its row the row of ones.
			span, id := [2]int64{lo, hi}, [1]tensor.Index{}
			if p.chainNodes(span[:], id[:], p.ones, 1, 0, 1, dst) == 0 {
				p.chains(lo, hi, p.ones, dst, 0)
			}
		} else {
			p.sumFibers(fptr[lo:hi+1], t.Ids[level][lo:hi], p.u[level], p.rows[level], dst)
		}
	default:
		r := p.R
		buf, ptr, ids, u, fptr := scratch[:r], t.Ptr[level], t.Ids[level], p.u[level], t.Ptr[p.leaf-1]
		fused := level == p.leaf-2 && p.empty < 0
		for node := lo; node < hi; node++ {
			if fused && p.asm {
				if node = p.chainNodes(ptr, ids, u, p.rows[level], node, hi, dst); node == hi {
					break
				}
			}
			f0, f1, urow := ptr[node], ptr[node+1], u[int(ids[node])*r:][:r]
			if fused && fptr[f1]-fptr[f0] == f1-f0 {
				p.chains(f0, f1, urow, dst, 0)
				continue
			}
			clear(buf)
			p.walk(level+1, f0, f1, buf, scratch[r:])
			mulAdd(dst, urow, buf)
		}
	}
}

// treeBody is the deepest two levels of the tree as the AVX2 bodies read
// them, by offset (mttkrp_amd64.s; TestTreeBodyLayout pins the offsets):
// the leaves' factor rows kid, their values and the leaf factor with its
// row count, then the fiber level's pointers into the leaves, factor rows
// and factor with its row count. begin binds it per execution.
type treeBody struct {
	kid    []tensor.Index
	vals   []tensor.Value
	ku     []tensor.Value
	kuRows int
	fptr   []int64
	fid    []tensor.Index
	fu     []tensor.Value
	fuRows int
}

// chainNodes sums nodes [lo, hi) of the level above the fibers (ptr their
// fiber ranges, ids their rows of u, which holds rows rows) into dst as
// chains does, as long as they pass the single-leaf test, and returns the
// first node it did not sum: hi, a node that fails the test, or one with a
// pointer or row out of range, of which it writes nothing. The AVX2 body
// (chainsAVX2) computes columns [0, r&^7) in calls of at most cpu.CallNNZ
// leaves cut at node boundaries, and chains the columns left. Without the
// body — no AVX2, R < 8, a range the O(1) precondition rejects — it sums
// nothing and returns lo.
func (p *MttkrpPlan) chainNodes(ptr []int64, ids []tensor.Index, u []tensor.Value, rows int, lo, hi int64, dst []tensor.Value) int64 {
	r := p.R
	if !p.asm || lo < 0 || lo > hi || hi >= int64(len(ptr)) || hi > int64(len(ids)) || len(dst) < r {
		return lo
	}
	c := r &^ 7
	for lo < hi {
		// A node the body sums has one leaf per fiber: its leaves are
		// ptr[node+1] − ptr[node].
		end := int64(cpu.Cut(ptr, int(lo), int(hi)))
		stop := int64(chainsAVX2(&p.body, ptr, ids, u, rows, dst, r, int(lo), int(end)))
		if c < r {
			for node := lo; node < stop; node++ {
				p.chains(ptr[node], ptr[node+1], u[int(ids[node])*r:][:r], dst, c)
			}
		}
		lo = stop
		if stop < end {
			break
		}
	}
	return lo
}

// sumFibers adds fu(fid[f],:) ⊙ Σ_leaf val·U(leaf,:) over fibers f — leaves
// [fptr[f], fptr[f+1]), rows rows in fu — into dst. The AVX2 body
// (fibersAVX2) computes columns [0, r&^7) in calls of at most cpu.CallNNZ
// leaves cut at fiber boundaries; it stops before the first fiber with a
// row or leaf range out of range, and fibers resumes there, so such a
// fiber panics where the Go loop alone panics, after the same writes.
func (p *MttkrpPlan) sumFibers(fptr []int64, fid []tensor.Index, fu []tensor.Value, rows int, dst []tensor.Value) {
	r, lo, hi := p.R, 0, len(fid)
	if c := r &^ 7; p.asm && len(fptr) > hi && len(dst) >= r {
		for lo < hi {
			end := cpu.Cut(fptr, lo, hi)
			stop := fibersAVX2(&p.body, fptr, fid, fu, rows, dst, r, lo, end)
			if c < r {
				p.fibers(fptr[lo:], fid[lo:stop], fu, dst, c)
			}
			lo = stop
			if stop < end {
				break
			}
		}
	}
	p.fibers(fptr[lo:], fid[lo:], fu, dst, 0)
}

// chains adds urow ⊙ Σ_f fu(fid[f],:) ⊙ val·U(leaf,:) over fibers [lo, hi)
// of one leaf each (DESIGN.md §23, "Single-leaf fibers"): node, fibers and
// leaves in one loop, eight columns of the node's sum in registers. Products
// and additions are those of fibers and mulAdd, in their order; the leaf sum
// 0 + val·a is val·a up to a zero's sign, which a sum started at +0 absorbs.
// At the fiber level urow is the row of ones and dst is +0. It computes
// columns [c0, r).
func (p *MttkrpPlan) chains(lo, hi int64, urow, dst []tensor.Value, c0 int) {
	r, t := p.R, &p.t
	fid, fu, x := t.Ids[p.leaf-1][lo:hi], p.u[p.leaf-1], t.Ptr[p.leaf-1][lo]
	kid, ku, vals := t.Ids[p.leaf][x:][:len(fid)], p.u[p.leaf], t.Vals[x:][:len(fid)]
	urow, dst = urow[:r], dst[:r]
	c := c0
	for ; c+8 <= r; c += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 tensor.Value
		for f, id := range fid {
			v := vals[f]
			a, w := (*[8]tensor.Value)(ku[int(kid[f])*r+c:]), (*[8]tensor.Value)(fu[int(id)*r+c:])
			s0 += w[0] * (v * a[0])
			s1 += w[1] * (v * a[1])
			s2 += w[2] * (v * a[2])
			s3 += w[3] * (v * a[3])
			s4 += w[4] * (v * a[4])
			s5 += w[5] * (v * a[5])
			s6 += w[6] * (v * a[6])
			s7 += w[7] * (v * a[7])
		}
		u, d := (*[8]tensor.Value)(urow[c:]), (*[8]tensor.Value)(dst[c:])
		d[0] += u[0] * s0
		d[1] += u[1] * s1
		d[2] += u[2] * s2
		d[3] += u[3] * s3
		d[4] += u[4] * s4
		d[5] += u[5] * s5
		d[6] += u[6] * s6
		d[7] += u[7] * s7
	}
	for ; c < r; c++ {
		var s tensor.Value
		for f, id := range fid {
			s += fu[int(id)*r+c] * (vals[f] * ku[int(kid[f])*r+c])
		}
		dst[c] += urow[c] * s
	}
}

// fibers is the Mttkrp value computation of every tree (DESIGN.md §23),
// the deepest two levels fused: for each fiber f — leaves
// [fptr[f], fptr[f+1]), row fid[f] of the factor fu — it adds
// fu(fid[f],:) ⊙ Σ_leaf val·U(leaf,:) into dst. Eight columns of the leaf
// sum at a time live in registers across the fiber's leaves, the leaf rows
// re-sliced to [8]Value so the multiplies carry no bounds checks; a scalar
// loop takes the R mod 8 columns left. The sum starts at zero and takes the
// leaves in order: the scalar loop over a zeroed level vector, bit for bit.
// It computes columns [c0, r).
func (p *MttkrpPlan) fibers(fptr []int64, fid []tensor.Index, fu, dst []tensor.Value, c0 int) {
	r := p.R
	kid, ku, vals := p.t.Ids[p.leaf], p.u[p.leaf], p.t.Vals
	dst = dst[:r]
	for f, id := range fid {
		lo, hi := fptr[f], fptr[f+1]
		urow := fu[int(id)*r:][:r]
		c := c0
		for ; c+8 <= r; c += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 tensor.Value
			for x := lo; x < hi; x++ {
				v := vals[x]
				a := (*[8]tensor.Value)(ku[int(kid[x])*r+c:])
				s0 += v * a[0]
				s1 += v * a[1]
				s2 += v * a[2]
				s3 += v * a[3]
				s4 += v * a[4]
				s5 += v * a[5]
				s6 += v * a[6]
				s7 += v * a[7]
			}
			u, d := (*[8]tensor.Value)(urow[c:]), (*[8]tensor.Value)(dst[c:])
			d[0] += u[0] * s0
			d[1] += u[1] * s1
			d[2] += u[2] * s2
			d[3] += u[3] * s3
			d[4] += u[4] * s4
			d[5] += u[5] * s5
			d[6] += u[6] * s6
			d[7] += u[7] * s7
		}
		for ; c < r; c++ {
			var s tensor.Value
			for x := lo; x < hi; x++ {
				s += vals[x] * ku[int(kid[x])*r+c]
			}
			dst[c] += urow[c] * s
		}
	}
}

// mulAdd adds u ⊙ buf into dst.
func mulAdd(dst, u, buf []tensor.Value) {
	u, buf = u[:len(dst)], buf[:len(dst)]
	for c := range dst {
		dst[c] += u[c] * buf[c]
	}
}
