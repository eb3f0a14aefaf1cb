package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cpu"
	"repro/internal/hicoo"
	"repro/internal/tensor"
)

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

// bodyCase is a random order-N tensor with signed factors (so a
// reassociated sum would show in the low bits) and a nil mats[mode].
func bodyCase(seed int64, order, nnz, r, mode int) (*tensor.COO, []*tensor.Matrix) {
	dims := make([]tensor.Index, order)
	for n := range dims {
		dims[n] = tensor.Index(3 + (5*n+int(seed))%9)
		if order <= 4 {
			dims[n] += 290 // wider than one HiCOO block
		}
	}
	x := randTensor(seed, dims, nnz)
	mats := randMats(seed+1, x, r)
	rng := rand.New(rand.NewSource(seed + 2))
	for _, u := range mats {
		for i := range u.Data {
			if rng.Intn(2) == 0 {
				u.Data[i] = -u.Data[i]
			}
		}
	}
	mats[mode] = nil
	return x, mats
}

func sameBits(t *testing.T, label string, got, want []tensor.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#x), the scalar loop gives %v (%#x)", label, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestMttkrpBodyBitIdentical holds mttkrpRows to the scalar loop bit for
// bit through both of its callers, on the assembly body and on the Go
// loop: COO over the sub-ranges a tile or a rank passes (lo > 0
// included), HiCOO over block sub-ranges against the same loop run in
// HiCOO's own storage order, plain and (on the one goroutine of the
// test) atomic. The ranks cover no sixteen-column pass, one, several,
// an eight-column pass and every tail length the body leaves to Go;
// order 10 has more operands than mttkrpStackOperands.
func TestMttkrpBodyBitIdentical(t *testing.T) {
	for _, asm := range []bool{false, true} {
		if asm && !cpu.AVX2 {
			t.Log("no AVX2 on this host: the Go loop only")
			continue
		}
		withBody(asm, func() {
			for _, order := range []int{2, 3, 4, 5, 6, 10} {
				for _, r := range []int{1, 3, 7, 8, 9, 15, 16, 17, 24, 33} {
					mttkrpBitIdentical(t, fmt.Sprintf("asm %v order %d R %d", asm, order, r), order, r)
				}
			}
		})
	}
}

// TestMttkrpBodyAcrossCalls holds a COO range of more than two calls'
// worth of non-zeros (cpu.CallNNZ each), entered at lo > 0, to the scalar
// loop bit for bit, on the Go loop and on the assembly body.
func TestMttkrpBodyAcrossCalls(t *testing.T) {
	const order, r, mode = 3, 17, 1
	x, mats := bodyCase(11, order, 2*cpu.CallNNZ+1000, r, mode)
	m := x.NNZ()
	if m <= 2*cpu.CallNNZ {
		t.Fatalf("%d non-zeros fit in two calls", m)
	}
	size := int(x.Dims[mode]) * r
	for _, rg := range [][2]int{{0, m}, {5, m - 3}} {
		want := make([]tensor.Value, size)
		scalarMttkrp(x.Inds, x.Vals, mode, r, mats, want, rg[0], rg[1])
		for _, asm := range []bool{false, true} {
			if asm && !cpu.AVX2 {
				continue
			}
			got := make([]tensor.Value, size)
			withBody(asm, func() { MttkrpCOORange(x.Inds, x.Vals, mode, r, mats, got, rg[0], rg[1], false) })
			sameBits(t, fmt.Sprintf("asm %v range %v", asm, rg), got, want)
		}
	}
}

// mttkrpBitIdentical is one (order, R) case of TestMttkrpBodyBitIdentical,
// on whichever body cpu.AVX2 selects.
func mttkrpBitIdentical(t *testing.T, label string, order, r int) {
	t.Helper()
	mode := (order + r) % order
	x, mats := bodyCase(int64(100*order+r), order, 600, r, mode)
	m := x.NNZ()
	size := int(x.Dims[mode]) * r
	label += fmt.Sprintf(" mode %d", mode)

	for _, rg := range [][2]int{{0, m}, {0, 0}, {m, m}, {m / 3, m / 3}, {0, m / 3}, {m / 3, 2*m/3 + 1}, {m - 1, m}} {
		want := make([]tensor.Value, size)
		scalarMttkrp(x.Inds, x.Vals, mode, r, mats, want, rg[0], rg[1])
		for _, atomicUpd := range []bool{false, true} {
			got := make([]tensor.Value, size)
			MttkrpCOORange(x.Inds, x.Vals, mode, r, mats, got, rg[0], rg[1], atomicUpd)
			sameBits(t, fmt.Sprintf("COO %s range %v atomic %v", label, rg, atomicUpd), got, want)
		}
	}

	h := hicoo.FromCOO(x, hicoo.DefaultBlockBits)
	stored := h.ToCOO() // the non-zeros in block order
	hp, err := PrepareMttkrpHiCOO(h, mode, r)
	if err != nil {
		t.Fatal(err)
	}
	nb := h.NumBlocks()
	for _, rg := range [][2]int{{0, nb}, {0, 0}, {nb / 2, nb / 2}, {0, nb / 2}, {nb / 2, nb}, {1, nb - 1}} {
		want := make([]tensor.Value, size)
		scalarMttkrp(stored.Inds, stored.Vals, mode, r, mats, want, int(h.BPtr[rg[0]]), int(h.BPtr[rg[1]]))
		for _, atomicUpd := range []bool{false, true} {
			got := make([]tensor.Value, size)
			hp.executeBlocks(rg[0], rg[1], mats, got, atomicUpd)
			sameBits(t, fmt.Sprintf("HiCOO %s blocks %v atomic %v", label, rg, atomicUpd), got, want)
		}
	}
}

// TestMttkrpOutOfRangePanicsAtSameNonZero puts one row index past the
// end of a factor or of the output and runs the body on and off the
// assembly: both must panic at that non-zero with the same message and
// the same writes before it — those of the non-zeros in front of it —
// and neither may write the guard values behind the output's rows. COO
// gets a 32-bit index one row past the end; HiCOO gets a block moved to
// the last block row with an 8-bit element index of 255 in it.
func TestMttkrpOutOfRangePanicsAtSameNonZero(t *testing.T) {
	const order, mode = 3, 1
	for _, r := range []int{8, 16, 17, 33} {
		for _, bad := range []int{mode, 0, 2} {
			x, mats := bodyCase(int64(7*r+bad), order, 400, r, mode)
			inds := make([][]tensor.Index, order)
			for n := range inds {
				inds[n] = append([]tensor.Index(nil), x.Inds[n]...)
			}
			const lo, at = 20, 250
			inds[bad][at] = x.Dims[bad] // one row past the end
			size := int(x.Dims[mode]) * r
			want := make([]tensor.Value, size)
			scalarMttkrp(inds, x.Vals, mode, r, mats, want, lo, at)
			samePanic(t, fmt.Sprintf("COO R %d bad mode %d", r, bad), size, want, func(out []tensor.Value) {
				MttkrpCOORange(inds, x.Vals, mode, r, mats, out, lo, x.NNZ(), false)
			})

			h := hicoo.FromCOO(x, hicoo.DefaultBlockBits)
			hp, err := PrepareMttkrpHiCOO(h, mode, r)
			if err != nil {
				t.Fatal(err)
			}
			b := h.NumBlocks() / 2
			h.BInds[bad][b] = (x.Dims[bad] - 1) >> h.BlockBits
			h.EInds[bad][h.BPtr[b+1]-1] = 255
			samePanic(t, fmt.Sprintf("HiCOO R %d bad mode %d", r, bad), size, nil, func(out []tensor.Value) {
				hp.executeBlocks(0, h.NumBlocks(), mats, out, false)
			})
		}
	}
}

// samePanic runs run on an output of size values plus a guard tail, on
// the Go loop and on the assembly body. Both must panic with the same
// runtime error after the same writes (want's, when given), and leave
// the guard alone.
func samePanic(t *testing.T, label string, size int, want []tensor.Value, run func(out []tensor.Value)) {
	t.Helper()
	const guard = 5
	var msgs []string
	for _, asm := range []bool{false, true} {
		if asm && !cpu.AVX2 {
			continue
		}
		label := fmt.Sprintf("%s asm %v", label, asm)
		out := make([]tensor.Value, size+guard)
		for i := size; i < len(out); i++ {
			out[i] = -7
		}
		err := func() (err runtime.Error) {
			defer func() { err, _ = recover().(runtime.Error) }()
			withBody(asm, func() { run(out) })
			return nil
		}()
		if err == nil {
			t.Fatalf("%s: no runtime error panic", label)
		}
		msgs = append(msgs, err.Error())
		if want == nil {
			want = out[:size] // the Go loop's writes
		}
		sameBits(t, label, out[:size], want)
		for i := size; i < len(out); i++ {
			if out[i] != -7 {
				t.Fatalf("%s: guard value %d past the output is %v", label, i-size, out[i])
			}
		}
	}
	if len(msgs) == 2 && msgs[0] != msgs[1] {
		t.Fatalf("%s: the Go loop panics with %q, the assembly path with %q", label, msgs[0], msgs[1])
	}
}

// TestMttkrpExecuteAllocatesNothing pins the Execute paths of Mttkrp at
// zero allocations per call: the operand list lives on the executor's
// stack and the body needs no scratch row.
func TestMttkrpExecuteAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	x := randTensor(90, []tensor.Index{40, 30, 50, 20}, 3000)
	const r, mode = 16, 2
	mats := randMats(91, x, r)
	p, err := PrepareMttkrp(x, mode, r)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := PrepareMttkrpHiCOO(hicoo.FromCOO(x, hicoo.DefaultBlockBits), mode, r)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]tensor.Value, len(p.Out.Data))
	for name, run := range map[string]func(){
		"MttkrpPlan.ExecuteSeq": func() {
			if _, err := p.ExecuteSeq(mats); err != nil {
				t.Fatal(err)
			}
		},
		"MttkrpHiCOOPlan.ExecuteSeq": func() {
			if _, err := hp.ExecuteSeq(mats); err != nil {
				t.Fatal(err)
			}
		},
		"MttkrpCOORange": func() {
			MttkrpCOORange(x.Inds, x.Vals, mode, r, mats, out, 0, x.NNZ(), false)
		},
	} {
		if n := testing.AllocsPerRun(10, run); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
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
		x := randTensor(int64(len(dims)), dims, 100000)
		h := hicoo.FromCOO(x, hicoo.DefaultBlockBits)
		for _, r := range []int{16, 32} {
			mats := randMats(7, x, r)
			p, err := PrepareMttkrp(x, 0, r)
			if err != nil {
				b.Fatal(err)
			}
			hp, err := PrepareMttkrpHiCOO(h, 0, r)
			if err != nil {
				b.Fatal(err)
			}
			for _, f := range []struct {
				name string
				exec func([]*tensor.Matrix) (*tensor.Matrix, error)
			}{{"COO", p.ExecuteSeq}, {"HiCOO", hp.ExecuteSeq}} {
				for _, body := range []struct {
					name string
					asm  bool
				}{{"go", false}, {"avx2", true}} {
					b.Run(fmt.Sprintf("order=%d/R=%d/%s/%s", len(dims), r, f.name, body.name), func(b *testing.B) {
						if body.asm && !cpu.AVX2 {
							b.Skip("no AVX2 on this host")
						}
						withBody(body.asm, func() {
							b.ReportAllocs()
							b.ResetTimer()
							for i := 0; i < b.N; i++ {
								if _, err := f.exec(mats); err != nil {
									b.Fatal(err)
								}
							}
						})
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(x.NNZ()), "ns/nnz")
					})
				}
			}
		}
	}
}
