package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dataset"
	"repro/internal/hicoo"
	"repro/internal/kernelreg"
	"repro/internal/levels"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/tensortest"
)

// The tests below hold core's three assembly bodies to their contract
// (DESIGN.md, "Assembly bodies") through tensortest.CheckBody, one part
// of it each: the Mttkrp row body (mttkrpRows32 behind mttkrpRows and
// mttkrpBlocks behind HiCOO's executeBlocks), the Ttm fiber body (ttmRows
// behind ttmFibers) and the Ttv fiber-group body (ttvGroups behind
// ttvFibers).

// scalarMttkrp is the textbook Mttkrp loop the blocked body replaced,
// kept as its oracle: per non-zero an R-wide scratch row starts at the
// value, is multiplied by each other mode's factor row in ascending mode
// order, and is added to the output row.
func scalarMttkrp(inds [][]tensor.Index, vals []tensor.Value, mode, r int, mats []*tensor.Matrix, out []tensor.Value, lo, hi int) {
	prod := make([]tensor.Value, r)
	for x := lo; x < hi; x++ {
		for c := range prod {
			prod[c] = vals[x]
		}
		for mo, ind := range inds {
			if mo == mode {
				continue
			}
			row := mats[mo].Row(int(ind[x]))
			for c := range prod {
				prod[c] *= row[c]
			}
		}
		orow := out[int(inds[mode][x])*r:][:r]
		for c := range prod {
			orow[c] += prod[c]
		}
	}
}

// mttkrpCase is a random order-N tensor with signed factors (so that a
// reassociated sum shows in the low bits) and a nil mats[mode].
func mttkrpCase(seed int64, order, nnz, r, mode int) (*tensor.COO, []*tensor.Matrix) {
	dims := make([]tensor.Index, order)
	for n := range dims {
		dims[n] = tensor.Index(3 + (5*n+int(seed))%9)
		if order <= 4 {
			dims[n] += 290 // wider than one HiCOO block
		}
	}
	x := tensor.RandomCOO(dims, nnz, rand.New(rand.NewSource(seed)))
	mats := tensortest.SignedFactors(x, r, seed+1)
	mats[mode] = nil
	return x, mats
}

// sparseBlocks is a hypersparse order-N tensor in the shape of regS4d's
// HiCOO form (hicoo.DefaultBlockBits): one non-zero in each of about
// blocks random blocks of a grid rowBlocks blocks wide per mode, half of
// them with a second non-zero in the same block, with signed values and
// factors and a nil mats[mode]. Every mode is whole blocks long, so any
// block's base plus any element index is a row.
func sparseBlocks(seed int64, order, rowBlocks, blocks, r, mode int) (*tensor.COO, []*tensor.Matrix) {
	const side = 1 << hicoo.DefaultBlockBits
	rng := rand.New(rand.NewSource(seed))
	dims := make([]tensor.Index, order)
	for n := range dims {
		dims[n] = tensor.Index(rowBlocks * side)
	}
	x := tensor.NewCOO(dims, 2*blocks)
	idx := make([]tensor.Index, order)
	for range blocks {
		for n := range idx {
			idx[n] = tensor.Index(rng.Intn(rowBlocks)*side + rng.Intn(side))
		}
		x.Append(idx, tensor.Value(2*rng.Float64()-1))
		if rng.Intn(2) == 0 {
			idx[0] = idx[0]&^(side-1) | (idx[0]+tensor.Index(1+rng.Intn(side-1)))&(side-1)
			x.Append(idx, tensor.Value(2*rng.Float64()-1))
		}
	}
	x.Dedup()
	mats := tensortest.SignedFactors(x, r, seed+1)
	mats[mode] = nil
	return x, mats
}

// scalarMttkrpBlocks is Algorithm 2 as the textbook writes it, the
// oracle of HiCOO block ranges: per block b and non-zero x of
// [BPtr[b], BPtr[b+1]), the scratch-row product of scalarMttkrp over rows
// BInds[m][b]<<BlockBits + EInds[m][x].
func scalarMttkrpBlocks(h *hicoo.HiCOO, mode, r int, mats []*tensor.Matrix, out []tensor.Value, lo, hi int) {
	prod := make([]tensor.Value, r)
	for b := lo; b < hi; b++ {
		for x := h.BPtr[b]; x < h.BPtr[b+1]; x++ {
			for c := range prod {
				prod[c] = h.Vals[x]
			}
			for mo := range h.EInds {
				if mo == mode {
					continue
				}
				row := mats[mo].Row(int(h.Index(mo, b, x)))
				for c := range prod {
					prod[c] *= row[c]
				}
			}
			orow := out[int(h.Index(mode, b, x))*r:][:r]
			for c := range prod {
				orow[c] += prod[c]
			}
		}
	}
}

// TestMttkrpBodyBitIdentical holds the Mttkrp row body to the scalar
// loop bit for bit through both of its callers: COO over the ranges a
// tile or a rank passes (lo > 0 included), HiCOO over block ranges
// against the oracle in HiCOO's storage order, plain and, on the test's
// one goroutine, atomic. The ranks cover every tail length; order 10
// has more operands than the executor's stack array. HiCOO tensors of
// one or two non-zeros per block, as regular4d's, hold the block entry
// to Algorithm 2's loop: orders 2–5 and 10 over sub-ranges, a range of
// several calls, and BPtr made non-monotone in range (a block runs
// empty, the next re-reads its non-zeros under its own bases). Orders
// 2–4 run the body's one-, two- and three-operand instantiations, the
// others the Go loop alone.
func TestMttkrpBodyBitIdentical(t *testing.T) {
	var b tensortest.Body
	add := func(name string, size int, oracle, run func([]tensor.Value)) {
		b.Cases = append(b.Cases, tensortest.BodyCase{Name: name, Size: size, Oracle: oracle, Run: run})
	}
	for _, order := range []int{2, 3, 4, 5, 6, 10} {
		for _, r := range []int{1, 3, 7, 8, 9, 15, 16, 17, 24, 33} {
			mode := (order + r) % order
			x, mats := mttkrpCase(int64(100*order+r), order, 600, r, mode)
			m, size := x.NNZ(), int(x.Dims[mode])*r
			label := fmt.Sprintf("order %d R %d mode %d", order, r, mode)
			for _, rg := range [][2]int{{0, m}, {0, 0}, {m, m}, {m / 3, m / 3}, {0, m / 3}, {m / 3, 2*m/3 + 1}, {m - 1, m}} {
				for _, atomicUpd := range []bool{false, true} {
					add(fmt.Sprintf("COO %s range %v atomic %v", label, rg, atomicUpd), size,
						func(out []tensor.Value) { scalarMttkrp(x.Inds, x.Vals, mode, r, mats, out, rg[0], rg[1]) },
						func(out []tensor.Value) {
							core.MttkrpCOORange(x.Inds, x.Vals, mode, r, mats, out, rg[0], rg[1], atomicUpd)
						})
				}
			}

			h := hicoo.FromCOO(x, hicoo.DefaultBlockBits)
			stored := h.ToCOO() // the non-zeros in block order
			hp, err := core.PrepareMttkrpHiCOO(h, mode, r)
			if err != nil {
				t.Fatal(err)
			}
			nb := h.NumBlocks()
			for _, rg := range [][2]int{{0, nb}, {0, 0}, {nb / 2, nb / 2}, {0, nb / 2}, {nb / 2, nb}, {1, nb - 1}} {
				for _, atomicUpd := range []bool{false, true} {
					add(fmt.Sprintf("HiCOO %s blocks %v atomic %v", label, rg, atomicUpd), size,
						func(out []tensor.Value) {
							scalarMttkrp(stored.Inds, stored.Vals, mode, r, mats, out, int(h.BPtr[rg[0]]), int(h.BPtr[rg[1]]))
						},
						func(out []tensor.Value) { hp.ExecuteBlocks(rg[0], rg[1], mats, out, atomicUpd) })
				}
			}
		}
	}

	blockCase := func(label string, h *hicoo.HiCOO, mats []*tensor.Matrix, mode, r, lo, hi int, units []int64) {
		hp, err := core.PrepareMttkrpHiCOO(h, mode, r)
		if err != nil {
			t.Fatal(err)
		}
		b.Cases = append(b.Cases, tensortest.BodyCase{Name: label, Size: int(h.Dims[mode]) * r, Units: units,
			Oracle: func(out []tensor.Value) { scalarMttkrpBlocks(h, mode, r, mats, out, lo, hi) },
			Run:    func(out []tensor.Value) { hp.ExecuteBlocks(lo, hi, mats, out, false) },
		})
	}
	for _, order := range []int{2, 3, 4, 5, 10} {
		rowBlocks := 32
		switch order {
		case 2:
			rowBlocks = 512
		case 10:
			rowBlocks = 4
		}
		for _, r := range []int{8, 16, 17, 33, 40} {
			mode := (order + r) % order
			x, mats := sparseBlocks(int64(1000*order+r), order, rowBlocks, 300, r, mode)
			h := hicoo.FromCOO(x, hicoo.DefaultBlockBits)
			nb := h.NumBlocks()
			if nnz := h.NNZ(); nnz > 2*nb {
				t.Fatalf("order %d: %d non-zeros in %d blocks, want one or two per block", order, nnz, nb)
			}
			for _, rg := range [][2]int{{0, nb}, {1, nb - 1}, {nb / 3, 2 * nb / 3}} {
				blockCase(fmt.Sprintf("HiCOO sparse blocks order %d R %d mode %d blocks %v", order, r, mode, rg), h, mats, mode, r, rg[0], rg[1], nil)
			}
		}
	}
	{
		const order, r, mode = 4, 17, 1
		x, mats := sparseBlocks(31, order, 32, 48_000, r, mode)
		h := hicoo.FromCOO(x, hicoo.DefaultBlockBits)
		nb := h.NumBlocks()
		for _, rg := range [][2]int{{0, nb}, {3, nb - 2}} {
			blockCase(fmt.Sprintf("HiCOO sparse blocks across calls blocks %v", rg), h, mats, mode, r, rg[0], rg[1], h.BPtr[rg[0]:rg[1]+1])
		}

		inverted := *h
		inverted.BPtr = append([]int64(nil), h.BPtr...)
		for _, k := range []int{1, nb / 3, nb / 2, nb - 2} {
			inverted.BPtr[k], inverted.BPtr[k+1] = inverted.BPtr[k+1], inverted.BPtr[k]
		}
		blockCase("HiCOO sparse blocks non-monotone BPtr", &inverted, mats, mode, r, 0, nb, nil)
	}
	tensortest.CheckBody(t, b)
}

// TestMttkrpBodyAcrossCalls holds a COO range of more than two calls'
// worth of non-zeros (cpu.CallNNZ each), entered at lo > 0 too, to the
// scalar loop bit for bit.
func TestMttkrpBodyAcrossCalls(t *testing.T) {
	var b tensortest.Body
	const r, mode = 17, 1
	x, mats := mttkrpCase(11, 3, 2*cpu.CallNNZ+1000, r, mode)
	m := x.NNZ()
	nonZeros := make([]int64, m+1) // every non-zero is a unit of its own
	for i := range nonZeros {
		nonZeros[i] = int64(i)
	}
	for _, rg := range [][2]int{{0, m}, {5, m - 3}} {
		b.Cases = append(b.Cases, tensortest.BodyCase{Name: fmt.Sprintf("COO range %v", rg), Size: int(x.Dims[mode]) * r, Units: nonZeros[rg[0] : rg[1]+1],
			Oracle: func(out []tensor.Value) { scalarMttkrp(x.Inds, x.Vals, mode, r, mats, out, rg[0], rg[1]) },
			Run:    func(out []tensor.Value) { core.MttkrpCOORange(x.Inds, x.Vals, mode, r, mats, out, rg[0], rg[1], false) },
		})
	}
	tensortest.CheckBody(t, b)
}

// TestMttkrpOutOfRangePanicsAtSameNonZero puts one row index past a
// factor or the output, in every slot of every operand count the body
// instantiates (orders 2–4, the output and each input mode): COO's
// 32-bit index at the row count and at 2³² − 1, HiCOO's 8-bit index at
// the row count in a block of the last block row and at 255 in a block
// moved there, and HiCOO's block index one block past the rows and at
// 2³² − 1. HiCOO's block pointers are corrupted too (order 3): the last
// BPtr entry past the values, an entry of −1 (inside a range, and as the
// first block of one), and an entry moved back before the block in front
// of it (that block runs empty, and this one re-reads earlier non-zeros
// under its own bases until a row is past the end). Both sides must
// panic at the same non-zero after the same writes.
func TestMttkrpOutOfRangePanicsAtSameNonZero(t *testing.T) {
	const mode = 1
	var b tensortest.Body
	hicooCase := func(name string, h *hicoo.HiCOO, mats []*tensor.Matrix, r int) {
		hp, err := core.PrepareMttkrpHiCOO(h, mode, r)
		if err != nil {
			t.Fatal(err)
		}
		b.Corruptions = append(b.Corruptions, tensortest.BodyCase{
			Name: name, Size: int(h.Dims[mode]) * r,
			Run: func(out []tensor.Value) { hp.ExecuteBlocks(0, h.NumBlocks(), mats, out, false) },
		})
	}
	for _, r := range []int{8, 16, 17, 33} {
		for _, order := range []int{2, 3, 4} {
			for bad := range order {
				seed := int64(7*r + bad)
				if order != 3 {
					seed += int64(1000 * order)
				}
				x, mats := mttkrpCase(seed, order, 400, r, mode)
				label := fmt.Sprintf("order %d R %d bad mode %d", order, r, bad)
				for _, idx := range []tensor.Index{x.Dims[bad], math.MaxUint32} {
					inds := x.Clone().Inds
					const lo, at = 20, 250
					inds[bad][at] = idx
					b.Corruptions = append(b.Corruptions, tensortest.BodyCase{
						Name: fmt.Sprintf("COO %s index %d", label, idx), Size: int(x.Dims[mode]) * r,
						Oracle: func(out []tensor.Value) { scalarMttkrp(inds, x.Vals, mode, r, mats, out, lo, at) },
						Run: func(out []tensor.Value) {
							core.MttkrpCOORange(inds, x.Vals, mode, r, mats, out, lo, x.NNZ(), false)
						},
					})
				}

				last := (x.Dims[bad] - 1) >> hicoo.DefaultBlockBits
				h := hicoo.FromCOO(x, hicoo.DefaultBlockBits)
				blk := lastRowBlock(t, h, bad)
				h.EInds[bad][h.BPtr[blk+1]-1] = uint8(x.Dims[bad] - last<<hicoo.DefaultBlockBits)
				hicooCase(fmt.Sprintf("HiCOO %s element index at the row count", label), h, mats, r)

				h = hicoo.FromCOO(x, hicoo.DefaultBlockBits)
				blk = h.NumBlocks() / 2
				h.BInds[bad][blk] = last
				h.EInds[bad][h.BPtr[blk+1]-1] = 255
				hicooCase(fmt.Sprintf("HiCOO %s element index 255", label), h, mats, r)
				for _, bind := range []tensor.Index{last + 1, math.MaxUint32} {
					h := hicoo.FromCOO(x, hicoo.DefaultBlockBits)
					h.BInds[bad][h.NumBlocks()/2] = bind
					hicooCase(fmt.Sprintf("HiCOO %s BInds %d", label, bind), h, mats, r)
				}
				if order != 3 {
					continue
				}
				h = hicoo.FromCOO(x, hicoo.DefaultBlockBits)
				blk, to := movedBack(t, h, bad)
				h.BPtr[blk] = to
				hicooCase(fmt.Sprintf("HiCOO %s BPtr[%d] moved back to %d", label, blk, to), h, mats, r)
			}
		}

		x, mats := mttkrpCase(int64(7*r), 3, 400, r, mode)
		h := hicoo.FromCOO(x, hicoo.DefaultBlockBits)
		h.BPtr[h.NumBlocks()] = int64(h.NNZ()) + 3
		hicooCase(fmt.Sprintf("HiCOO R %d last BPtr past the values", r), h, mats, r)

		h = hicoo.FromCOO(x, hicoo.DefaultBlockBits)
		blk := h.NumBlocks() / 2
		h.BPtr[blk] = -1
		hicooCase(fmt.Sprintf("HiCOO R %d BPtr -1", r), h, mats, r)
		hp, err := core.PrepareMttkrpHiCOO(h, mode, r)
		if err != nil {
			t.Fatal(err)
		}
		b.Corruptions = append(b.Corruptions, tensortest.BodyCase{
			Name: fmt.Sprintf("HiCOO R %d BPtr -1 at a range's first block", r), Size: int(h.Dims[mode]) * r,
			Run: func(out []tensor.Value) {
				hp.ExecuteBlocks(0, blk, mats, out, false)
				hp.ExecuteBlocks(blk, h.NumBlocks(), mats, out, false)
			},
		})
	}
	tensortest.CheckBody(t, b)
}

// lastRowBlock finds a block of h, from the middle on, whose base in
// mode bad is the mode's last block row.
func lastRowBlock(t *testing.T, h *hicoo.HiCOO, bad int) int {
	t.Helper()
	last := (h.Dims[bad] - 1) >> h.BlockBits
	nb := h.NumBlocks()
	for i := range nb {
		if blk := (nb/2 + i) % nb; h.BInds[bad][blk] == last {
			return blk
		}
	}
	t.Fatalf("no block in mode %d's last block row", bad)
	return 0
}

// movedBack finds a block of h whose base in mode bad is the last block
// row and a non-zero in front of the block before it whose element
// index in mode bad, under that base, is past the mode's end: with
// BPtr[blk] set to at, block blk−1 runs empty and block blk panics at
// its first non-zero, at.
func movedBack(t *testing.T, h *hicoo.HiCOO, bad int) (blk int, at int64) {
	t.Helper()
	last := (h.Dims[bad] - 1) >> h.BlockBits
	for blk := h.NumBlocks() - 1; blk >= 2; blk-- {
		if h.BInds[bad][blk] != last {
			continue
		}
		for at := h.BPtr[blk-1] - 1; at >= 0; at-- {
			if last<<h.BlockBits+tensor.Index(h.EInds[bad][at]) >= h.Dims[bad] {
				return blk, at
			}
		}
	}
	t.Fatalf("no block to move back in mode %d", bad)
	return 0, 0
}

// TestMttkrpExecuteAllocatesNothing pins the Mttkrp paths at zero
// allocations per call: the operand list lives on the executor's stack
// and the body needs no scratch row. The sparse-blocks HiCOO plan (order
// 4, R = 16, one or two non-zeros per block) runs the block entry, and
// ExecuteSeq of orders 2 and 3 the body's other operand counts. On one
// worker ExecuteOMP is ExecuteSeq: it allocates nothing and builds no
// mode-sorted copy, whatever the strategy asked for.
func TestMttkrpExecuteAllocatesNothing(t *testing.T) {
	ax := tensor.RandomCOO([]tensor.Index{40, 30, 50, 20}, 3000, rand.New(rand.NewSource(90)))
	amats := tensortest.SignedFactors(ax, 16, 91)
	p, err := core.PrepareMttkrp(ax, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := core.PrepareMttkrpHiCOO(hicoo.FromCOO(ax, hicoo.DefaultBlockBits), 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	sx, smats := sparseBlocks(92, 4, 32, 3000, 16, 2)
	sh := hicoo.FromCOO(sx, hicoo.DefaultBlockBits)
	sp, err := core.PrepareMttkrpHiCOO(sh, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]tensor.Value, len(p.Out.Data))
	allocs := map[string]func() error{
		"MttkrpPlan.ExecuteSeq":      func() error { _, err := p.ExecuteSeq(amats); return err },
		"MttkrpHiCOOPlan.ExecuteSeq": func() error { _, err := hp.ExecuteSeq(amats); return err },
		"MttkrpHiCOOPlan.ExecuteSeq sparse blocks": func() error {
			_, err := sp.ExecuteSeq(smats)
			return err
		},
		"MttkrpCOORange": func() error {
			core.MttkrpCOORange(ax.Inds, ax.Vals, 2, 16, amats, out, 0, ax.NNZ(), false)
			return nil
		},
	}
	for _, order := range []int{2, 3} {
		x, mats := mttkrpCase(int64(93+order), order, 3000, 16, 1)
		p, err := core.PrepareMttkrp(x, 1, 16)
		if err != nil {
			t.Fatal(err)
		}
		hp, err := core.PrepareMttkrpHiCOO(hicoo.FromCOO(x, hicoo.DefaultBlockBits), 1, 16)
		if err != nil {
			t.Fatal(err)
		}
		allocs[fmt.Sprintf("MttkrpPlan.ExecuteSeq order %d", order)] = func() error { _, err := p.ExecuteSeq(mats); return err }
		allocs[fmt.Sprintf("MttkrpHiCOOPlan.ExecuteSeq order %d", order)] = func() error { _, err := hp.ExecuteSeq(mats); return err }
	}
	for _, st := range []parallel.Strategy{parallel.Auto, parallel.Atomic, parallel.Privatized} {
		opt := parallel.Options{Schedule: parallel.Dynamic, Threads: 1, Strategy: st}
		allocs["MttkrpPlan.ExecuteOMP T=1 "+st.String()] = func() error { _, err := p.ExecuteOMP(amats, opt); return err }
		allocs["MttkrpHiCOOPlan.ExecuteOMP T=1 "+st.String()] = func() error { _, err := hp.ExecuteOMP(amats, opt); return err }
	}
	tensortest.CheckBody(t, tensortest.Body{Allocs: allocs})
	if p.HasOwners() || hp.HasOwners() {
		t.Fatal("ExecuteOMP on one worker built a mode-sorted copy")
	}
}

// scalarTtm is the textbook Ttm loop, the oracle: each output row of
// fibers [lo, hi) starts at zero and adds value times U row per
// non-zero, in order.
func scalarTtm(b core.FiberBody, u *tensor.Matrix, out []tensor.Value, lo, hi int) {
	r := u.Cols
	for f := lo; f < hi; f++ {
		row := out[f*r : (f+1)*r]
		for c := range row {
			row[c] = 0
		}
		for m := b.Fptr[f]; m < b.Fptr[f+1]; m++ {
			urow := u.Row(int(b.KInd[m]))
			for c := range row {
				row[c] += b.Vals[m] * urow[c]
			}
		}
	}
}

// ttmPlan is one way of preparing Ttm that runs fiberKernel.ttmFibers:
// its fiber view and its ExecuteSeq, which fills body.Out.
type ttmPlan struct {
	name string
	body core.FiberBody
	exec func(*tensor.Matrix) error
}

func ttmPlanOf(t testing.TB, name string, p *core.TtmPlan, err error) ttmPlan {
	t.Helper()
	if err != nil {
		t.Fatal(name, err)
	}
	return ttmPlan{name, p.Body(), func(u *tensor.Matrix) error { _, err := p.ExecuteSeq(u); return err }}
}

// ttmPlans prepares Ttm of x in mode every way the contract covers: the
// COO and HiCOO plans, the CSF and bCSF trees through levels, and the
// COO plan's fibers with an empty fiber in front, after every third
// fiber and at the end.
func ttmPlans(t *testing.T, x *tensor.COO, mode, r int) []ttmPlan {
	t.Helper()
	coo, err := core.PrepareTtm(x, mode, r)
	plans := []ttmPlan{ttmPlanOf(t, "COO", coo, err)}

	hp, err := core.PrepareTtmHiCOO(x, mode, r, hicoo.DefaultBlockBits)
	if err != nil {
		t.Fatal(err)
	}
	plans = append(plans, ttmPlan{"HiCOO", hp.Body(), func(u *tensor.Matrix) error { _, err := hp.ExecuteSeq(u); return err }})

	mo := tensor.ModeOrder(x.Order(), mode)
	for _, sig := range []levels.Signature{levels.CSFSig(x.Order()), levels.BCSFSig(x.Order(), 2)} {
		h, err := levels.Build(x, sig, mo)
		if err != nil {
			t.Fatal(sig, err)
		}
		p, err := levels.PrepareTtm(h, mode, r)
		plans = append(plans, ttmPlanOf(t, sig.Name, p, err))
	}

	b := coo.Body()
	fptr := []int64{0}
	for f := 1; f < len(b.Fptr); f++ {
		if f%3 == 0 {
			fptr = append(fptr, b.Fptr[f-1])
		}
		fptr = append(fptr, b.Fptr[f])
	}
	fptr = append(fptr, b.Fptr[len(b.Fptr)-1])
	cols := make([][]tensor.Index, x.Order())
	for _, n := range tensor.OtherModes(x.Order(), mode) {
		cols[n] = make([]tensor.Index, len(fptr)-1)
	}
	p, err := core.NewTtmPlan(core.FiberView{Fptr: fptr, KInd: b.KInd, Vals: b.Vals, Dims: x.Dims, Mode: mode}, cols, r)
	return append(plans, ttmPlanOf(t, "empty fibers", p, err))
}

// ttmCases are plan p's cases: ExecuteSeq on an output as a fresh plan
// holds it, then again on its own result (the output is refilled, not
// added to), and fiber sub-ranges (lo > 0 included) into an output whose
// other rows must keep their values.
func ttmCases(t *testing.T, label string, p ttmPlan, u *tensor.Matrix, units []int64) []tensortest.BodyCase {
	mf := len(p.body.Fptr) - 1
	size := mf * u.Cols
	oracle := func(out []tensor.Value) { scalarTtm(p.body, u, out, 0, mf) }
	exec := func(out []tensor.Value) {
		if err := p.exec(u); err != nil {
			t.Fatal(label, err)
		}
		copy(out, p.body.Out)
	}
	cases := []tensortest.BodyCase{
		{Name: label + " ExecuteSeq", Size: size, Units: units, Oracle: oracle,
			Run: func(out []tensor.Value) { copy(p.body.Out, out); exec(out) }},
		{Name: label + " ExecuteSeq again", Size: size, Oracle: oracle, Run: exec},
	}
	for _, rg := range [][2]int{{0, 0}, {mf, mf}, {mf / 3, mf / 3}, {0, mf / 3}, {mf / 3, 2*mf/3 + 1}, {1, mf}, {mf - 1, mf}} {
		cases = append(cases, tensortest.BodyCase{
			Name: fmt.Sprintf("%s fibers %v", label, rg), Size: size, Fill: 7,
			Oracle: func(out []tensor.Value) { scalarTtm(p.body, u, out, rg[0], rg[1]) },
			Run:    func(out []tensor.Value) { p.body.Ttm(out, rg[0], rg[1], u) },
		})
	}
	return cases
}

// TestTtmBodyBitIdentical holds the Ttm fiber body to the scalar loop
// bit for bit through every plan that runs it (COO, HiCOO, CSF, bCSF, a
// view with empty fibers) at every tail length; over tensors cut
// between fibers or a call per fiber; and over outputs streamed
// (core.TtmStreamValues) and, one value off their alignment, not.
func TestTtmBodyBitIdentical(t *testing.T) {
	var b tensortest.Body
	for order := 2; order <= 6; order++ {
		for _, r := range []int{1, 3, 7, 8, 9, 15, 16, 17, 24, 33} {
			mode := (order + r) % order
			dims := make([]tensor.Index, order)
			for n := range dims {
				dims[n] = tensor.Index(4 + (3*n+r)%7)
				if order <= 3 {
					dims[n] += 40
				}
			}
			x := tensor.RandomCOO(dims, 700, rand.New(rand.NewSource(int64(100*order+r))))
			u := tensortest.SignedFactors(x, r, int64(r))[mode]
			for _, p := range ttmPlans(t, x, mode, r) {
				b.Cases = append(b.Cases, ttmCases(t, fmt.Sprintf("order %d R %d mode %d %s", order, r, mode, p.name), p, u, nil)...)
			}
		}
	}

	rng := rand.New(rand.NewSource(5))
	cut := tensor.RandomCOO([]tensor.Index{300, 200, 100}, 150_000, rng)
	long := tensor.NewCOO([]tensor.Index{2, 100_000}, 160_000)
	for i := 0; i < 2; i++ {
		for j := 0; j < 100_000; j++ {
			if j%5 != 0 {
				long.Append([]tensor.Index{tensor.Index(i), tensor.Index(j)}, tensor.Value(1-rng.Float64()))
			}
		}
	}
	hyper := tensor.RandomCOO([]tensor.Index{500, 700, 900}, 90_000, rng)
	for _, c := range []struct {
		name      string
		x         *tensor.COO
		mode, r   int
		longFiber bool // each fiber holds more than a call's budget
		streamed  bool // the output is past core.TtmStreamValues
	}{
		{"cut between fibers", cut, 1, 17, false, true},
		{"longer fibers", long, 1, 16, true, false},
		{"streamed R 16", hyper, 0, 16, false, true},
		{"streamed R 24", hyper, 2, 24, false, true},
	} {
		p, err := core.PrepareTtm(c.x, c.mode, c.r)
		pl := ttmPlanOf(t, c.name, p, err)
		fptr := pl.body.Fptr
		mf := len(fptr) - 1
		if end, long := cpu.Cut(fptr, 0, mf), fptr[1] > cpu.CallNNZ; long != c.longFiber || !long && end < 2 {
			t.Fatalf("%s: the first call takes %d of %d fibers, %d non-zeros", c.name, end, mf, fptr[end])
		}
		if size := mf * c.r; size >= core.TtmStreamValues != c.streamed {
			t.Fatalf("%s: an output of %d values, streamed from %d", c.name, size, core.TtmStreamValues)
		}
		u := tensortest.SignedFactors(c.x, c.r, 9)[c.mode]
		b.Cases = append(b.Cases, ttmCases(t, c.name, pl, u, fptr)...)
		if c.streamed {
			b.Cases = append(b.Cases, tensortest.BodyCase{
				Name: c.name + " unaligned output", Size: mf * c.r,
				Oracle: func(out []tensor.Value) { scalarTtm(pl.body, u, out, 0, mf) },
				Run: func(out []tensor.Value) {
					off := make([]tensor.Value, 1+len(out))[1:]
					pl.body.Ttm(off, 0, mf, u)
					copy(out, off)
				},
			})
		}
	}

	tensortest.CheckBody(t, b)
}

// TestTtmOutOfRangePanicsAtSameFiber corrupts one fiber — a product
// index one row past U, a fiber end past the values, or an output one
// row short: both sides must panic with the same runtime error after the
// same writes.
func TestTtmOutOfRangePanicsAtSameFiber(t *testing.T) {
	var b tensortest.Body
	const mode = 1
	x := tensor.RandomCOO([]tensor.Index{30, 40, 20}, 500, rand.New(rand.NewSource(3)))
	for _, r := range []int{8, 16, 17, 33} {
		u := tensortest.SignedFactors(x, r, 4)[mode]
		for _, bad := range []string{"index", "fiber end", "output row"} {
			p, err := core.PrepareTtm(x.Clone(), mode, r)
			if err != nil {
				t.Fatal(err)
			}
			body := p.Body() // aliases the plan's arrays: the corruption is the plan's
			mf := len(body.Fptr) - 1
			f := mf / 2
			size := mf * r
			switch bad {
			case "index":
				body.KInd[body.Fptr[f+1]-1] = x.Dims[mode]
			case "fiber end":
				body.Fptr[f+1] = int64(len(body.Vals)) + 3
			case "output row":
				size -= r
			}
			b.Corruptions = append(b.Corruptions, tensortest.BodyCase{
				Name: fmt.Sprintf("R %d bad %s", r, bad), Size: size,
				Run: func(out []tensor.Value) { body.Ttm(out, 0, mf, u) },
			})
		}
	}

	tensortest.CheckBody(t, b)
}

// TestTtmExecuteAllocatesNothing pins ExecuteSeq of the COO and HiCOO Ttm
// plans at zero allocations per call, with and without a tail of columns
// left to Go.
func TestTtmExecuteAllocatesNothing(t *testing.T) {
	allocs := map[string]func() error{}
	ax := tensor.RandomCOO([]tensor.Index{40, 30, 50, 20}, 3000, rand.New(rand.NewSource(90)))
	for _, r := range []int{16, 20} {
		u := tensortest.SignedFactors(ax, r, 91)[2]
		p, err := core.PrepareTtm(ax, 2, r)
		if err != nil {
			t.Fatal(err)
		}
		hp, err := core.PrepareTtmHiCOO(ax, 2, r, hicoo.DefaultBlockBits)
		if err != nil {
			t.Fatal(err)
		}
		allocs[fmt.Sprintf("TtmPlan.ExecuteSeq R %d", r)] = func() error { _, err := p.ExecuteSeq(u); return err }
		allocs[fmt.Sprintf("TtmHiCOOPlan.ExecuteSeq R %d", r)] = func() error { _, err := hp.ExecuteSeq(u); return err }
	}
	tensortest.CheckBody(t, tensortest.Body{Allocs: allocs})
}

// BenchmarkMttkrpBody times one sequential Mttkrp (mode 0) through the
// COO and the HiCOO plan, on the Go loop and on the assembly body, and
// reports it per non-zero. Run it with -cpu 1. The random tensors hold
// tens to thousands of non-zeros per HiCOO block; regS4d, regular4d's
// service tensor at 100 000 non-zeros, holds about 1.6, so its HiCOO row
// shows the per-block cost. The main/ rows time every mode, R = 16, of
// the three workloads' main tensors (dataset.Materialize, seed 1) over
// the operands the workbench draws.
func BenchmarkMttkrpBody(b *testing.B) {
	e, err := dataset.ByID("regS4d")
	if err != nil {
		b.Fatal(err)
	}
	regS4d, err := dataset.Materialize(e, 100_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []struct {
		name string
		x    *tensor.COO
	}{
		{"order=3", tensor.RandomCOO([]tensor.Index{3000, 2000, 1000}, 100000, rand.New(rand.NewSource(3)))},
		{"order=4", tensor.RandomCOO([]tensor.Index{400, 300, 200, 100}, 100000, rand.New(rand.NewSource(4)))},
		{"order=5", tensor.RandomCOO([]tensor.Index{120, 100, 80, 60, 40}, 100000, rand.New(rand.NewSource(5)))},
		{"regS4d", regS4d},
	} {
		x := w.x
		h := hicoo.FromCOO(x, hicoo.DefaultBlockBits)
		for _, r := range []int{16, 32} {
			mats := tensortest.SignedFactors(x, r, 7)
			p, err := core.PrepareMttkrp(x, 0, r)
			if err != nil {
				b.Fatal(err)
			}
			hp, err := core.PrepareMttkrpHiCOO(h, 0, r)
			if err != nil {
				b.Fatal(err)
			}
			for _, f := range []struct {
				name string
				exec func([]*tensor.Matrix) (*tensor.Matrix, error)
			}{{"COO", p.ExecuteSeq}, {"HiCOO", hp.ExecuteSeq}} {
				tensortest.BenchSides(b, fmt.Sprintf("%s/R=%d/%s", w.name, r, f.name), x.NNZ(), "nnz", func() error {
					_, err := f.exec(mats)
					return err
				})
			}
		}
	}

	const r = 16
	for _, w := range []struct {
		id  string
		nnz int
	}{{"irrS", 300_000}, {"regS4d", 100_000}, {"nell2", 40_000}} {
		e, err := dataset.ByID(w.id)
		if err != nil {
			b.Fatal(err)
		}
		x, err := dataset.Materialize(e, w.nnz, 1)
		if err != nil {
			b.Fatal(err)
		}
		h := hicoo.FromCOO(x, hicoo.DefaultBlockBits)
		mats := kernelreg.FactorMats(x.Dims, r)
		for mode := range x.Dims {
			p, err := core.PrepareMttkrp(x, mode, r)
			if err != nil {
				b.Fatal(err)
			}
			hp, err := core.PrepareMttkrpHiCOO(h, mode, r)
			if err != nil {
				b.Fatal(err)
			}
			for _, f := range []struct {
				name string
				exec func([]*tensor.Matrix) (*tensor.Matrix, error)
			}{{"COO", p.ExecuteSeq}, {"HiCOO", hp.ExecuteSeq}} {
				name := fmt.Sprintf("main/%s-%d/mode=%d/R=%d/%s", w.id, w.nnz, mode, r, f.name)
				tensortest.BenchSides(b, name, x.NNZ(), "nnz", func() error {
					_, err := f.exec(mats)
					return err
				})
			}
		}
	}
}

// BenchmarkTtmBody times one sequential mode-0 Ttm, R = 16, through the
// COO plan on skewed3d's service tensor (irrS, 37 500 non-zeros), on the
// Go loop and on the assembly body, and reports it per non-zero. Run it
// with -cpu 1.
func BenchmarkTtmBody(b *testing.B) {
	e, err := dataset.ByID("irrS")
	if err != nil {
		b.Fatal(err)
	}
	x, err := dataset.Materialize(e, 37_500, 1)
	if err != nil {
		b.Fatal(err)
	}
	const r = 16
	p, err := core.PrepareTtm(x, 0, r)
	if err != nil {
		b.Fatal(err)
	}
	u := tensortest.SignedFactors(x, r, 2)[0]
	tensortest.BenchSides(b, "", x.NNZ(), "nnz", func() error {
		_, err := p.ExecuteSeq(u)
		return err
	})
}

// scalarTtv is the textbook Ttv loop, the oracle: each fiber of [lo, hi)
// sums value times vector entry from +0, in non-zero order.
func scalarTtv(b core.FiberBody, v tensor.Vector, out []tensor.Value, lo, hi int) {
	for f := lo; f < hi; f++ {
		var acc tensor.Value
		for m := b.Fptr[f]; m < b.Fptr[f+1]; m++ {
			acc += b.Vals[m] * v[b.KInd[m]]
		}
		out[f] = acc
	}
}

// scalarTtvGrouped is scalarTtv over fibers [lo, hi) of g, the grouped
// layout of b: g's fiber f is b's fiber g.Perm[f], summed from b's own
// arrays into out[g.Perm[f]].
func scalarTtvGrouped(b, g core.FiberBody, v tensor.Vector, out []tensor.Value, lo, hi int) {
	for f := lo; f < hi; f++ {
		pf := int(g.Perm[f])
		scalarTtv(b, v, out, pf, pf+1)
	}
}

// powerLawFibers returns an order-3 tensor whose mode-2 fibers, one per
// (i, j), have power-law lengths: fiber r of n, in a shuffled order,
// holds ⌈top·r^−α⌉ non-zeros at distinct indices, with signed values.
func powerLawFibers(dims []tensor.Index, top, alpha float64, seed int64) *tensor.COO {
	rng := rand.New(rand.NewSource(seed))
	n := int(dims[0] * dims[1])
	x := tensor.NewCOO(dims, 0)
	for f, r := range rng.Perm(n) {
		l := int(math.Ceil(top * math.Pow(float64(r+1), -alpha)))
		start := rng.Intn(int(dims[2]))
		for j := 0; j < l; j++ {
			k := (start + 7*j) % int(dims[2])
			x.Append([]tensor.Index{tensor.Index(f) / dims[1], tensor.Index(f) % dims[1], tensor.Index(k)}, tensor.Value(2*rng.Float64()-1))
		}
	}
	return x
}

// groupedBody returns the grouped layout of a Ttv plan's fibers, failing
// t if Prepare built none.
func groupedBody(t testing.TB, name string, b core.FiberBody) core.FiberBody {
	t.Helper()
	g, ok := b.Grouped()
	if !ok {
		t.Fatalf("%s: Prepare built no length-grouped layout", name)
	}
	return g
}

// ttvVector returns a signed vector of n values with −0, ±Inf and NaN
// planted. Its NaN is the one x86 makes of ∞ − ∞ and 0·∞ (0xffc00000), so
// that no fiber sees two NaN payloads: which of two survives a sum is the
// compiler's choice of operand order, and it differs between builds of
// the Go loop (-race).
func ttvVector(n int, seed int64) tensor.Vector {
	rng := rand.New(rand.NewSource(seed))
	special := []tensor.Value{tensor.Value(math.Copysign(0, -1)), tensor.Value(math.Inf(1)), tensor.Value(math.Inf(-1)), math.Float32frombits(0xffc00000)}
	v := make(tensor.Vector, n)
	for i := range v {
		v[i] = tensor.Value(2*rng.Float64() - 1)
		if rng.Intn(8) == 0 {
			v[i] = special[rng.Intn(len(special))]
		}
	}
	return v
}

// ttvPlan is one way of preparing Ttv that runs fiberKernel.ttvFibers:
// its fiber view, its ExecuteSeq and, for the COO-shaped plans, its
// ExecuteFibers, which fill body.Out.
type ttvPlan struct {
	name   string
	body   core.FiberBody
	exec   func(tensor.Vector) error
	fibers func(lo, hi int, v tensor.Vector) error // nil for HiCOO
}

func ttvPlanOf(t testing.TB, name string, p *core.TtvPlan, err error) ttvPlan {
	t.Helper()
	if err != nil {
		t.Fatal(name, err)
	}
	return ttvPlan{name, p.Body(),
		func(v tensor.Vector) error { _, err := p.ExecuteSeq(v); return err },
		func(lo, hi int, v tensor.Vector) error { _, err := p.ExecuteFibers(lo, hi, v); return err }}
}

// ttvViewPlan returns a Ttv plan over fptr and the columns of b, with
// zero skeleton columns.
func ttvViewPlan(t testing.TB, name string, b core.FiberBody, fptr []int64, dims []tensor.Index, mode int) ttvPlan {
	t.Helper()
	cols := make([][]tensor.Index, len(dims))
	for _, n := range tensor.OtherModes(len(dims), mode) {
		cols[n] = make([]tensor.Index, len(fptr)-1)
	}
	p, err := core.NewTtvPlan(core.FiberView{Fptr: fptr, KInd: b.KInd, Vals: b.Vals, Dims: dims, Mode: mode}, cols)
	return ttvPlanOf(t, name, p, err)
}

// ttvPlans prepares Ttv of x in mode every way the contract covers: the
// COO and HiCOO plans, the CSF and bCSF trees through levels, and the
// COO plan's fibers with an empty fiber in front, after every third
// fiber, eight in a row after the tenth, and one at the end.
func ttvPlans(t *testing.T, x *tensor.COO, mode int) []ttvPlan {
	t.Helper()
	coo, err := core.PrepareTtv(x, mode)
	plans := []ttvPlan{ttvPlanOf(t, "COO", coo, err)}

	hp, err := core.PrepareTtvHiCOO(x, mode, hicoo.DefaultBlockBits)
	if err != nil {
		t.Fatal(err)
	}
	plans = append(plans, ttvPlan{"HiCOO", hp.Body(), func(v tensor.Vector) error { _, err := hp.ExecuteSeq(v); return err }, nil})

	mo := tensor.ModeOrder(x.Order(), mode)
	for _, sig := range []levels.Signature{levels.CSFSig(x.Order()), levels.BCSFSig(x.Order(), 2)} {
		h, err := levels.Build(x, sig, mo)
		if err != nil {
			t.Fatal(sig, err)
		}
		p, err := levels.PrepareTtv(h, mode)
		plans = append(plans, ttvPlanOf(t, sig.Name, p, err))
	}

	b := coo.Body()
	fptr := []int64{0}
	for f := 1; f < len(b.Fptr); f++ {
		if f%3 == 0 {
			fptr = append(fptr, b.Fptr[f-1])
		}
		if f == 10 {
			for i := 0; i < 8; i++ {
				fptr = append(fptr, b.Fptr[f-1])
			}
		}
		fptr = append(fptr, b.Fptr[f])
	}
	fptr = append(fptr, b.Fptr[len(b.Fptr)-1])
	return append(plans, ttvViewPlan(t, "empty fibers", b, fptr, x.Dims, mode))
}

// ttvCases are plan p's cases: ExecuteSeq on an output as a fresh plan
// holds it, then again on its own result (the output is refilled, not
// added to), ExecuteFibers and the owner arm over fiber ranges (lo > 0,
// and every tail length of 1 to 7 fibers, included) into an output whose
// other values must keep theirs, and the owner arm over the same ranges
// of the length-grouped layout when the plan has one.
func ttvCases(t *testing.T, label string, p ttvPlan, v tensor.Vector, units []int64) []tensortest.BodyCase {
	mf := len(p.body.Fptr) - 1
	oracle := func(out []tensor.Value) { scalarTtv(p.body, v, out, 0, mf) }
	exec := func(out []tensor.Value) {
		if err := p.exec(v); err != nil {
			t.Fatal(label, err)
		}
		copy(out, p.body.Out)
	}
	cases := []tensortest.BodyCase{
		{Name: label + " ExecuteSeq", Size: mf, Units: units, Oracle: oracle,
			Run: func(out []tensor.Value) { copy(p.body.Out, out); exec(out) }},
		{Name: label + " ExecuteSeq again", Size: mf, Oracle: oracle, Run: exec},
	}
	ranges := [][2]int{{0, 0}, {mf, mf}, {mf / 3, mf / 3}, {0, mf / 3}, {mf / 3, 2*mf/3 + 1}, {1, mf}, {3, mf - 2}, {mf - 1, mf}, {mf - 9, mf}}
	for tail := 1; tail < 8; tail++ {
		ranges = append(ranges, [2]int{5, 5 + 16 + tail})
	}
	g, grouped := p.body.Grouped()
	for _, rg := range ranges {
		lo, hi := rg[0], rg[1]
		if lo < 0 || hi > mf {
			continue
		}
		if grouped {
			cases = append(cases, tensortest.BodyCase{
				Name: fmt.Sprintf("%s grouped fibers %v", label, rg), Size: mf, Fill: 7,
				Oracle: func(out []tensor.Value) { scalarTtvGrouped(p.body, g, v, out, lo, hi) },
				Run:    func(out []tensor.Value) { g.Ttv(out, lo, hi, v) },
			})
		}
		cases = append(cases, tensortest.BodyCase{
			Name: fmt.Sprintf("%s fibers %v", label, rg), Size: mf, Fill: 7,
			Oracle: func(out []tensor.Value) { scalarTtv(p.body, v, out, lo, hi) },
			Run:    func(out []tensor.Value) { p.body.Ttv(out, lo, hi, v) },
		})
		if p.fibers != nil {
			cases = append(cases, tensortest.BodyCase{
				Name: fmt.Sprintf("%s ExecuteFibers %v", label, rg), Size: mf, Fill: 7,
				Oracle: func(out []tensor.Value) { scalarTtv(p.body, v, out, lo, hi) },
				Run: func(out []tensor.Value) {
					copy(p.body.Out, out)
					if err := p.fibers(lo, hi, v); err != nil {
						t.Fatal(label, err)
					}
					copy(out, p.body.Out)
				},
			})
		}
	}
	return cases
}

// ttvGroupsView returns a mode-1 Ttv plan over 27 fibers whose groups of
// eight take each of the body's paths: fibers 0–7 hold one non-zero each
// (single-leaf), 8–15 one or two (lanes), 16–23 nine and seven times one
// (lanes, one of them active past the second step), and 24–26, the tail
// the Go loop reduces, one each. Its lengths are too even for a grouped
// layout. The product mode has ten indices; no non-zero takes the last.
// Its values and vector are signed.
func ttvGroupsView(t testing.TB) (ttvPlan, tensor.Vector) {
	t.Helper()
	lens := []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 2, 1, 2, 1, 2, 9, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	const kDim = 10
	rng := rand.New(rand.NewSource(12))
	b := core.FiberBody{Fptr: []int64{0}}
	for _, n := range lens {
		for i := 0; i < n; i++ {
			b.KInd = append(b.KInd, tensor.Index(rng.Intn(kDim-1)))
			b.Vals = append(b.Vals, tensor.Value(2*rng.Float64()-1))
		}
		b.Fptr = append(b.Fptr, int64(len(b.Vals)))
	}
	v := make(tensor.Vector, kDim)
	for i := range v {
		v[i] = tensor.Value(2*rng.Float64() - 1)
	}
	return ttvViewPlan(t, "groups", b, b.Fptr, []tensor.Index{3, kDim}, 1), v
}

// TestTtvBodyBitIdentical holds the Ttv body to the scalar loop bit for
// bit through every plan that runs it (COO, HiCOO, CSF, bCSF, a view
// with empty fibers, eight of them in a row) on every mode of random
// tensors of orders 2–6, of the benchmark's three recipes — nell2 and
// regS4d, nearly every group single-leaf, and irrS, mixed lengths, whose
// plans run over the length-grouped layout — and of a tensor whose
// mode-2 fibers have power-law lengths, whose mode-2 plans must all take
// the layout, with −0, ±Inf and NaN in the vector. Last, on
// ttvGroupsView, one non-zero of a single-leaf and of two lane groups
// multiplies a NaN value by a NaN vector entry of another payload, which
// no other non-zero meets: x·v returns x's payload, v·x would return v's.
func TestTtvBodyBitIdentical(t *testing.T) {
	var b tensortest.Body
	var xs []tensortest.Case
	for order := 2; order <= 6; order++ {
		dims := make([]tensor.Index, order)
		for n := range dims {
			dims[n] = tensor.Index(4 + (3*n+order)%7)
			if order <= 3 {
				dims[n] += 40
			}
		}
		xs = append(xs, tensortest.Case{Name: fmt.Sprintf("order %d", order), X: tensor.RandomCOO(dims, 700, rand.New(rand.NewSource(int64(order))))})
	}
	for _, r := range []struct {
		id  string
		nnz int
	}{{"nell2", 5_000}, {"regS4d", 6_000}, {"irrS", 12_000}} {
		e, err := dataset.ByID(r.id)
		if err != nil {
			t.Fatal(err)
		}
		x, err := dataset.Materialize(e, r.nnz, 1)
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, tensortest.Case{Name: r.id, X: x})
	}
	const powerLaw = "power law"
	xs = append(xs, tensortest.Case{Name: powerLaw, X: powerLawFibers([]tensor.Index{30, 40, 500}, 300, 0.9, 4)})
	for i, c := range xs {
		for mode := 0; mode < c.X.Order(); mode++ {
			v := ttvVector(int(c.X.Dims[mode]), int64(10*i+mode))
			for _, p := range ttvPlans(t, c.X, mode) {
				label := fmt.Sprintf("%s mode %d %s", c.Name, mode, p.name)
				if c.Name == powerLaw && mode == 2 {
					groupedBody(t, label, p.body)
				}
				b.Cases = append(b.Cases, ttvCases(t, label, p, v, nil)...)
			}
		}
	}

	p, v := ttvGroupsView(t)
	b.Cases = append(b.Cases, ttvCases(t, "groups", p, v, nil)...)
	nan, v := ttvGroupsView(t)
	v[len(v)-1] = math.Float32frombits(0x7fc00b0b)
	for _, m := range []int64{nan.body.Fptr[2], nan.body.Fptr[9] + 1, nan.body.Fptr[16] + 3} {
		nan.body.KInd[m] = tensor.Index(len(v) - 1)
		nan.body.Vals[m] = math.Float32frombits(0x7fc00a0a)
	}
	b.Cases = append(b.Cases, ttvCases(t, "NaN operands", nan, v, nil)...)
	tensortest.CheckBody(t, b)
}

// TestTtvBodyAcrossCalls holds tensors whose fibers take more than one
// call (cpu.CallNNZ non-zeros each) to the scalar loop bit for bit:
// 150 000 non-zeros of short fibers, cut between fibers, 16 short fibers
// around one longer than a call's budget, which is a call of its own,
// entered at lo = 0 and lo > 0, and power-law fibers whose first window
// of the length-grouped layout holds more non-zeros than a call, so that
// the calls over the layout cut it, ExecuteSeq and the grouped owner arm
// entered at lo > 0.
func TestTtvBodyAcrossCalls(t *testing.T) {
	var b tensortest.Body
	cut := tensor.RandomCOO([]tensor.Index{300, 200, 100}, 150_000, rand.New(rand.NewSource(5)))
	long := tensor.NewCOO([]tensor.Index{16, 100_000}, 0)
	for i := 0; i < 16; i++ {
		n := 1 + i%3
		if i == 3 {
			n = cpu.CallNNZ + 4_000
		}
		for j := 0; j < n; j++ {
			long.Append([]tensor.Index{tensor.Index(i), tensor.Index(j * 7 % 100_000)}, tensor.Value(j%5)-1.5)
		}
	}
	for _, c := range []struct {
		name string
		x    *tensor.COO
		mode int
	}{{"cut between fibers", cut, 1}, {"fiber past the budget", long, 1}} {
		p, err := core.PrepareTtv(c.x, c.mode)
		pl := ttvPlanOf(t, c.name, p, err)
		v := ttvVector(int(c.x.Dims[c.mode]), 6)
		fptr := pl.body.Fptr
		mf := len(fptr) - 1
		b.Cases = append(b.Cases, ttvCases(t, c.name, pl, v, fptr)[0])
		for _, lo := range []int{1, 3} {
			b.Cases = append(b.Cases, tensortest.BodyCase{
				Name: fmt.Sprintf("%s fibers [%d, %d)", c.name, lo, mf), Size: mf, Fill: 7, Units: fptr[lo:],
				Oracle: func(out []tensor.Value) { scalarTtv(pl.body, v, out, lo, mf) },
				Run:    func(out []tensor.Value) { pl.body.Ttv(out, lo, mf, v) },
			})
		}
	}

	const name = "window past the budget"
	x := powerLawFibers([]tensor.Index{1, 1100, 4096}, 2000, 0.6, 8)
	p, err := core.PrepareTtv(x, 2)
	pl := ttvPlanOf(t, name, p, err)
	g := groupedBody(t, name, pl.body)
	if w := g.Fptr[min(1024, len(g.Fptr)-1)]; w <= cpu.CallNNZ {
		t.Fatalf("%s: the first window holds %d non-zeros, no more than a call", name, w)
	}
	v := ttvVector(int(x.Dims[2]), 9)
	mf := len(g.Fptr) - 1
	b.Cases = append(b.Cases, ttvCases(t, name, pl, v, g.Fptr)[0])
	for _, lo := range []int{1, 3} {
		b.Cases = append(b.Cases, tensortest.BodyCase{
			Name: fmt.Sprintf("%s grouped fibers [%d, %d)", name, lo, mf), Size: mf, Fill: 7, Units: g.Fptr[lo:],
			Oracle: func(out []tensor.Value) { scalarTtvGrouped(pl.body, g, v, out, lo, mf) },
			Run:    func(out []tensor.Value) { g.Ttv(out, lo, mf, v) },
		})
	}
	tensortest.CheckBody(t, b)
}

// TestTtvOutOfRangePanicsAtSameFiber corrupts one product index of
// ttvGroupsView — len(v) in a single-leaf and two lane groups,
// 0xFFFFFFFF in a later fiber of the long-fiber group and in a
// single-leaf group of a COO plan — or one fiber offset: a start that
// decreases to −1, and an end past the value column; or one perm entry
// of a length-grouped layout: len(Out) inside a group, and −1 in a later
// group. Both sides must panic with the same runtime error after the
// same writes.
func TestTtvOutOfRangePanicsAtSameFiber(t *testing.T) {
	var b tensortest.Body
	for _, bad := range []string{"single-leaf index", "lane index", "long-fiber index", "later long-fiber index", "decreasing offset", "end past the values"} {
		p, v := ttvGroupsView(t)
		body := p.body // aliases the plan's arrays: the corruption is the plan's
		switch bad {
		case "single-leaf index":
			body.KInd[body.Fptr[3]] = tensor.Index(len(v))
		case "lane index":
			body.KInd[body.Fptr[9]+1] = tensor.Index(len(v))
		case "long-fiber index":
			body.KInd[body.Fptr[16]+4] = tensor.Index(len(v))
		case "later long-fiber index":
			body.KInd[body.Fptr[19]] = 0xFFFFFFFF
		case "decreasing offset":
			body.Fptr[11] = -1
		case "end past the values":
			body.Fptr[24] = int64(len(body.Vals)) + 3
		}
		mf := len(body.Fptr) - 1
		b.Corruptions = append(b.Corruptions, tensortest.BodyCase{
			Name: bad, Size: mf,
			Run: func(out []tensor.Value) { body.Ttv(out, 0, mf, v) },
		})
	}

	e, err := dataset.ByID("regS4d")
	if err != nil {
		t.Fatal(err)
	}
	x, err := dataset.Materialize(e, 3_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.PrepareTtv(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	body := p.Body()
	mf := p.NumFibers()
	body.KInd[body.Fptr[mf/2]] = 0xFFFFFFFF
	v := ttvVector(int(x.Dims[2]), 7)
	b.Corruptions = append(b.Corruptions, tensortest.BodyCase{
		Name: "COO index 0xFFFFFFFF", Size: mf,
		Run: func(out []tensor.Value) { body.Ttv(out, 0, mf, v) },
	})

	x = powerLawFibers([]tensor.Index{30, 40, 500}, 300, 0.9, 4)
	v = ttvVector(int(x.Dims[2]), 8)
	for i, at := range []int{43, 205} {
		p, err := core.PrepareTtv(x, 2)
		if err != nil {
			t.Fatal(err)
		}
		g := groupedBody(t, "power law", p.Body()) // aliases the plan's layout
		mf := len(g.Fptr) - 1
		bad := int32(mf) // len(Out)
		if i > 0 {
			bad = -1
		}
		g.Perm[at] = bad
		b.Corruptions = append(b.Corruptions, tensortest.BodyCase{
			Name: fmt.Sprintf("perm[%d] = %d", at, bad), Size: mf,
			Run: func(out []tensor.Value) { g.Ttv(out, 0, mf, v) },
		})
	}
	tensortest.CheckBody(t, b)
}

// TestTtvExecuteAllocatesNothing pins ExecuteSeq of the COO, HiCOO and
// CSF Ttv plans, in their stored order and over a length-grouped layout,
// and ExecuteFibers, the dist ranks' entry, at zero allocations per call.
func TestTtvExecuteAllocatesNothing(t *testing.T) {
	x := tensor.RandomCOO([]tensor.Index{40, 30, 50, 20}, 3000, rand.New(rand.NewSource(90)))
	const mode = 2
	v := ttvVector(int(x.Dims[mode]), 91)
	p, err := core.PrepareTtv(x, mode)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := core.PrepareTtvHiCOO(x, mode, hicoo.DefaultBlockBits)
	if err != nil {
		t.Fatal(err)
	}
	h, err := levels.Build(x, levels.CSFSig(x.Order()), tensor.ModeOrder(x.Order(), mode))
	if err != nil {
		t.Fatal(err)
	}
	tp, err := levels.PrepareTtv(h, mode)
	if err != nil {
		t.Fatal(err)
	}
	y := powerLawFibers([]tensor.Index{30, 40, 500}, 300, 0.9, 4)
	yv := ttvVector(int(y.Dims[2]), 92)
	gp, err := core.PrepareTtv(y, 2)
	if err != nil {
		t.Fatal(err)
	}
	groupedBody(t, "power law COO", gp.Body())
	ghp, err := core.PrepareTtvHiCOO(y, 2, hicoo.DefaultBlockBits)
	if err != nil {
		t.Fatal(err)
	}
	groupedBody(t, "power law HiCOO", ghp.Body())
	tensortest.CheckBody(t, tensortest.Body{Allocs: map[string]func() error{
		"TtvPlan.ExecuteSeq":              func() error { _, err := p.ExecuteSeq(v); return err },
		"TtvHiCOOPlan.ExecuteSeq":         func() error { _, err := hp.ExecuteSeq(v); return err },
		"CSF TtvPlan.ExecuteSeq":          func() error { _, err := tp.ExecuteSeq(v); return err },
		"TtvPlan.ExecuteFibers":           func() error { _, err := p.ExecuteFibers(3, p.NumFibers()-1, v); return err },
		"grouped TtvPlan.ExecuteSeq":      func() error { _, err := gp.ExecuteSeq(yv); return err },
		"grouped TtvHiCOOPlan.ExecuteSeq": func() error { _, err := ghp.ExecuteSeq(yv); return err },
	}})
}

// BenchmarkTtvBody times one sequential Ttv per mode through the COO plan
// on the benchmark's three service tensors (irrS, regS4d and nell2 at a
// benchmark workload's main size over eight), on the Go loop and on the
// assembly body, and reports it per non-zero. Run it with -cpu 1.
func BenchmarkTtvBody(b *testing.B) {
	for _, r := range []struct {
		id  string
		nnz int
	}{{"irrS", 37_500}, {"regS4d", 12_500}, {"nell2", 5_000}} {
		e, err := dataset.ByID(r.id)
		if err != nil {
			b.Fatal(err)
		}
		x, err := dataset.Materialize(e, r.nnz, 2)
		if err != nil {
			b.Fatal(err)
		}
		for mode := 0; mode < x.Order(); mode++ {
			p, err := core.PrepareTtv(x, mode)
			if err != nil {
				b.Fatal(err)
			}
			v := ttvVector(int(x.Dims[mode]), 3)
			tensortest.BenchSides(b, fmt.Sprintf("%s/m%d", r.id, mode), x.NNZ(), "nnz", func() error {
				_, err := p.ExecuteSeq(v)
				return err
			})
		}
	}
}
