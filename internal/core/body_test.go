package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dataset"
	"repro/internal/hicoo"
	"repro/internal/levels"
	"repro/internal/tensor"
	"repro/internal/tensortest"
)

// The tests below hold core's two assembly bodies to their contract
// (DESIGN.md, "Assembly bodies") through tensortest.CheckBody, one part
// of it each: the Mttkrp row body (mttkrpRows32 and mttkrpRows8 behind
// mttkrpRows) and the Ttm fiber body (ttmRows behind ttmFibers).

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

// TestMttkrpBodyBitIdentical holds the Mttkrp row body to the scalar
// loop bit for bit through both of its callers: COO over the ranges a
// tile or a rank passes (lo > 0 included), HiCOO over block ranges
// against the oracle in HiCOO's storage order, plain and, on the test's
// one goroutine, atomic. The ranks cover every tail length; order 10
// has more operands than the executor's stack array.
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
// factor or the output: COO's 32-bit one row past the end, HiCOO's 8-bit
// 255 in a block moved to the last block row. Both sides must panic at
// that non-zero after the writes of the non-zeros in front of it.
func TestMttkrpOutOfRangePanicsAtSameNonZero(t *testing.T) {
	const mode = 1
	var b tensortest.Body
	for _, r := range []int{8, 16, 17, 33} {
		for _, bad := range []int{mode, 0, 2} {
			x, mats := mttkrpCase(int64(7*r+bad), 3, 400, r, mode)
			inds := x.Clone().Inds
			const lo, at = 20, 250
			inds[bad][at] = x.Dims[bad] // one row past the end
			size := int(x.Dims[mode]) * r
			b.Corruptions = append(b.Corruptions, tensortest.BodyCase{
				Name: fmt.Sprintf("COO R %d bad mode %d", r, bad), Size: size,
				Oracle: func(out []tensor.Value) { scalarMttkrp(inds, x.Vals, mode, r, mats, out, lo, at) },
				Run: func(out []tensor.Value) {
					core.MttkrpCOORange(inds, x.Vals, mode, r, mats, out, lo, x.NNZ(), false)
				},
			})

			h := hicoo.FromCOO(x, hicoo.DefaultBlockBits)
			hp, err := core.PrepareMttkrpHiCOO(h, mode, r)
			if err != nil {
				t.Fatal(err)
			}
			blk := h.NumBlocks() / 2
			h.BInds[bad][blk] = (x.Dims[bad] - 1) >> h.BlockBits
			h.EInds[bad][h.BPtr[blk+1]-1] = 255
			b.Corruptions = append(b.Corruptions, tensortest.BodyCase{
				Name: fmt.Sprintf("HiCOO R %d bad mode %d", r, bad), Size: size,
				Run: func(out []tensor.Value) { hp.ExecuteBlocks(0, h.NumBlocks(), mats, out, false) },
			})
		}
	}
	tensortest.CheckBody(t, b)
}

// TestMttkrpExecuteAllocatesNothing pins the Mttkrp paths at zero
// allocations per call: the operand list lives on the executor's stack
// and the body needs no scratch row.
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
	out := make([]tensor.Value, len(p.Out.Data))
	tensortest.CheckBody(t, tensortest.Body{Allocs: map[string]func() error{
		"MttkrpPlan.ExecuteSeq":      func() error { _, err := p.ExecuteSeq(amats); return err },
		"MttkrpHiCOOPlan.ExecuteSeq": func() error { _, err := hp.ExecuteSeq(amats); return err },
		"MttkrpCOORange": func() error {
			core.MttkrpCOORange(ax.Inds, ax.Vals, 2, 16, amats, out, 0, ax.NNZ(), false)
			return nil
		},
	}})
}

// scalarTtm is the textbook Ttm loop, the oracle: each output row of
// fibers [lo, hi) starts at zero and adds value times U row per
// non-zero, in order.
func scalarTtm(b core.TtmBody, u *tensor.Matrix, out []tensor.Value, lo, hi int) {
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
	body core.TtmBody
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
			Run:    func(out []tensor.Value) { p.body.Run(out, rg[0], rg[1], u) },
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
					pl.body.Run(off, 0, mf, u)
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
				Run: func(out []tensor.Value) { body.Run(out, 0, mf, u) },
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
// reports it per non-zero. Run it with -cpu 1.
func BenchmarkMttkrpBody(b *testing.B) {
	for _, dims := range [][]tensor.Index{
		{3000, 2000, 1000},
		{400, 300, 200, 100},
		{120, 100, 80, 60, 40},
	} {
		x := tensor.RandomCOO(dims, 100000, rand.New(rand.NewSource(int64(len(dims)))))
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
				tensortest.BenchSides(b, fmt.Sprintf("order=%d/R=%d/%s", len(dims), r, f.name), x.NNZ(), "nnz", func() error {
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
