package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dataset"
	"repro/internal/hicoo"
	"repro/internal/levels"
	"repro/internal/tensor"
)

// withAVX2 runs f with cpu.AVX2 set to on and restores it afterwards.
func withAVX2(on bool, f func()) {
	defer func(was bool) { cpu.AVX2 = was }(cpu.AVX2)
	cpu.AVX2 = on
	f()
}

// bodySides is the Go loop, and the assembly body where the host has it.
func bodySides() []bool {
	if cpu.AVX2 {
		return []bool{false, true}
	}
	return []bool{false}
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

// signedMatrix returns a random rows×r matrix with about half its values
// negated, so that a reassociated sum would show in the low bits.
func signedMatrix(rows, r int, seed int64) *tensor.Matrix {
	rng := rand.New(rand.NewSource(seed))
	u := tensor.NewMatrix(rows, r)
	u.Randomize(rng)
	for i := range u.Data {
		if rng.Intn(2) == 0 {
			u.Data[i] = -u.Data[i]
		}
	}
	return u
}

func sameValues(t *testing.T, label string, got, want []tensor.Value) {
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

// ttmPlan is one way of preparing Ttm that runs fiberKernel.ttmFibers.
type ttmPlan struct {
	name string
	body core.TtmBody
	exec func(*tensor.Matrix) ([]tensor.Value, error)
}

// ttmPlanOf wraps a prepared TtmPlan of any format.
func ttmPlanOf(t testing.TB, name string, p *core.TtmPlan, err error) ttmPlan {
	t.Helper()
	if err != nil {
		t.Fatal(name, err)
	}
	return ttmPlan{name, p.Body(), func(u *tensor.Matrix) ([]tensor.Value, error) {
		out, err := p.ExecuteSeq(u)
		if err != nil {
			return nil, err
		}
		return out.Vals, nil
	}}
}

// ttmPlans prepares Ttm of x in mode every way the identity test covers:
// the COO and HiCOO plans, the CSF and bCSF trees through levels, and
// the COO plan's fibers with an empty fiber in front, after every third
// fiber and at the end.
func ttmPlans(t *testing.T, x *tensor.COO, mode, r int) []ttmPlan {
	t.Helper()
	coo, err := core.PrepareTtm(x, mode, r)
	plans := []ttmPlan{ttmPlanOf(t, "COO", coo, err)}

	hp, err := core.PrepareTtmHiCOO(x, mode, r, hicoo.DefaultBlockBits)
	if err != nil {
		t.Fatal(err)
	}
	plans = append(plans, ttmPlan{"HiCOO", hp.Body(), func(u *tensor.Matrix) ([]tensor.Value, error) {
		out, err := hp.ExecuteSeq(u)
		if err != nil {
			return nil, err
		}
		return out.Vals, nil
	}})

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

// TestTtmBodyBitIdentical holds ttmFibers to the scalar loop bit for bit,
// on the Go loop and on the assembly body, through every plan that runs
// it: COO, HiCOO, the CSF and bCSF trees, and a view with empty fibers,
// by ExecuteSeq and over fiber sub-ranges (lo > 0 included) into an
// output whose other rows must keep their values. The ranks cover no
// sixteen-column pass, one, several, an eight-column pass and every
// tail length the body leaves to Go. Two larger tensors take more than
// one assembly call: one cut between fibers, one whose fibers each hold
// more than a call's budget and take a call each. Two hypersparse ones
// have outputs past core.TtmStreamValues, so the body writes them with
// streaming stores, and write them once more into an output one value
// off the 32-byte alignment those stores need, which the body must fall
// back from.
func TestTtmBodyBitIdentical(t *testing.T) {
	for _, asm := range bodySides() {
		withAVX2(asm, func() {
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
					u := signedMatrix(int(dims[mode]), r, int64(r))
					label := fmt.Sprintf("asm %v order %d R %d mode %d", asm, order, r, mode)
					for _, p := range ttmPlans(t, x, mode, r) {
						ttmBitIdentical(t, label+" "+p.name, p, u)
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
				firstCall int  // fibers of the first call; 0: several, within the budget
				streamed  bool // the output is past core.TtmStreamValues
			}{
				{"cut between fibers", cut, 1, 17, 0, true},
				{"longer fibers", long, 1, 16, 1, false},
				{"streamed R 16", hyper, 0, 16, 0, true},
				{"streamed R 24", hyper, 2, 24, 0, true},
			} {
				p, err := core.PrepareTtm(c.x, c.mode, c.r)
				pl := ttmPlanOf(t, c.name, p, err)
				fptr := pl.body.Fptr
				mf := len(fptr) - 1
				end := core.FiberCut(fptr, 0, mf)
				if n := fptr[end]; end == mf || c.firstCall == 0 && (end < 2 || n > 1<<16) || c.firstCall == 1 && (end != 1 || n <= 1<<16) {
					t.Fatalf("%s: the first call takes %d of %d fibers, %d non-zeros", c.name, end, mf, n)
				}
				if size := mf * c.r; size >= core.TtmStreamValues != c.streamed {
					t.Fatalf("%s: an output of %d values, streamed from %d", c.name, size, core.TtmStreamValues)
				}
				label := fmt.Sprintf("asm %v %s", asm, c.name)
				u := signedMatrix(int(c.x.Dims[c.mode]), c.r, 9)
				ttmBitIdentical(t, label, pl, u)
				if c.streamed {
					want := make([]tensor.Value, mf*c.r)
					scalarTtm(pl.body, u, want, 0, mf)
					got := make([]tensor.Value, 1+mf*c.r)[1:]
					pl.body.Run(got, 0, mf, u)
					sameValues(t, label+" unaligned output", got, want)
				}
			}
		})
	}
}

// ttmBitIdentical is one plan of TestTtmBodyBitIdentical, on whichever
// body cpu.AVX2 selects.
func ttmBitIdentical(t *testing.T, label string, p ttmPlan, u *tensor.Matrix) {
	t.Helper()
	mf := len(p.body.Fptr) - 1
	size := mf * u.Cols
	want := make([]tensor.Value, size)
	scalarTtm(p.body, u, want, 0, mf)
	for round := 0; round < 2; round++ { // the plan's output is refilled, not added to
		got, err := p.exec(u)
		if err != nil {
			t.Fatal(label, err)
		}
		sameValues(t, fmt.Sprintf("%s ExecuteSeq round %d", label, round), got, want)
	}
	for _, rg := range [][2]int{{0, 0}, {mf, mf}, {mf / 3, mf / 3}, {0, mf / 3}, {mf / 3, 2*mf/3 + 1}, {1, mf}, {mf - 1, mf}} {
		want := make([]tensor.Value, size)
		got := make([]tensor.Value, size)
		for i := range want {
			want[i], got[i] = 7, 7
		}
		scalarTtm(p.body, u, want, rg[0], rg[1])
		p.body.Run(got, rg[0], rg[1], u)
		sameValues(t, fmt.Sprintf("%s fibers %v", label, rg), got, want)
	}
}

// TestTtmOutOfRangePanicsAtSameFiber corrupts one fiber — a product
// index one row past U, a fiber end past the value column, or an output
// one row short — and runs the fibers on and off the assembly body: both
// must panic with the same runtime error after the same writes, and
// neither may write the guard values behind the output.
func TestTtmOutOfRangePanicsAtSameFiber(t *testing.T) {
	const order, mode = 3, 1
	x := tensor.RandomCOO([]tensor.Index{30, 40, 20}, 500, rand.New(rand.NewSource(3)))
	for _, r := range []int{8, 16, 17, 33} {
		u := signedMatrix(int(x.Dims[mode]), r, 4)
		for _, bad := range []string{"index", "fiber end", "output row"} {
			p, err := core.PrepareTtm(x.Clone(), mode, r)
			if err != nil {
				t.Fatal(err)
			}
			b := p.Body() // aliases the plan's arrays: the corruption is the plan's
			mf := len(b.Fptr) - 1
			f := mf / 2
			size := mf * r
			switch bad {
			case "index":
				b.KInd[b.Fptr[f+1]-1] = x.Dims[mode]
			case "fiber end":
				b.Fptr[f+1] = int64(len(b.Vals)) + 3
			case "output row":
				size -= r
			}
			ttmSamePanic(t, fmt.Sprintf("R %d bad %s", r, bad), size, func(out []tensor.Value) {
				b.Run(out, 0, mf, u)
			})
		}
	}
}

// ttmSamePanic runs run on an output of size values with a guard tail
// behind its capacity, on the Go loop and on the assembly body. Both must
// panic with the same runtime error, leave the same output bits and
// leave the guard alone.
func ttmSamePanic(t *testing.T, label string, size int, run func(out []tensor.Value)) {
	t.Helper()
	const guard = 5
	var msgs []string
	var first []tensor.Value
	for _, asm := range bodySides() {
		label := fmt.Sprintf("%s asm %v", label, asm)
		buf := make([]tensor.Value, size+guard)
		for i := size; i < len(buf); i++ {
			buf[i] = -7
		}
		err := func() (err runtime.Error) {
			defer func() { err, _ = recover().(runtime.Error) }()
			withAVX2(asm, func() { run(buf[:size:size]) })
			return nil
		}()
		if err == nil {
			t.Fatalf("%s: no runtime error panic", label)
		}
		msgs = append(msgs, err.Error())
		if first == nil {
			first = buf[:size]
		}
		sameValues(t, label, buf[:size], first)
		for i := size; i < len(buf); i++ {
			if buf[i] != -7 {
				t.Fatalf("%s: guard value %d past the output is %v", label, i-size, buf[i])
			}
		}
	}
	if len(msgs) == 2 && msgs[0] != msgs[1] {
		t.Fatalf("%s: the Go loop panics with %q, the assembly path with %q", label, msgs[0], msgs[1])
	}
}

// TestTtmExecuteAllocatesNothing pins ExecuteSeq of the COO and HiCOO Ttm
// plans at zero allocations per call, on the Go loop and on the assembly
// body, with and without a tail of columns left to Go.
func TestTtmExecuteAllocatesNothing(t *testing.T) {
	if core.RaceDetector {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	x := tensor.RandomCOO([]tensor.Index{40, 30, 50, 20}, 3000, rand.New(rand.NewSource(90)))
	const mode = 2
	for _, r := range []int{16, 20} {
		u := signedMatrix(int(x.Dims[mode]), r, 91)
		p, err := core.PrepareTtm(x, mode, r)
		if err != nil {
			t.Fatal(err)
		}
		hp, err := core.PrepareTtmHiCOO(x, mode, r, hicoo.DefaultBlockBits)
		if err != nil {
			t.Fatal(err)
		}
		for _, asm := range bodySides() {
			for name, run := range map[string]func(){
				"TtmPlan.ExecuteSeq": func() {
					if _, err := p.ExecuteSeq(u); err != nil {
						t.Fatal(err)
					}
				},
				"TtmHiCOOPlan.ExecuteSeq": func() {
					if _, err := hp.ExecuteSeq(u); err != nil {
						t.Fatal(err)
					}
				},
			} {
				var n float64
				withAVX2(asm, func() { n = testing.AllocsPerRun(10, run) })
				if n != 0 {
					t.Errorf("%s R %d asm %v allocates %v times per call, want 0", name, r, asm, n)
				}
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
	u := signedMatrix(int(x.Dims[0]), r, 2)
	for _, body := range []struct {
		name string
		asm  bool
	}{{"go", false}, {"avx2", true}} {
		b.Run(body.name, func(b *testing.B) {
			if body.asm && !cpu.AVX2 {
				b.Skip("no AVX2 on this host")
			}
			withAVX2(body.asm, func() {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := p.ExecuteSeq(u); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(x.NNZ()), "ns/nnz")
		})
	}
}
