package algo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/tensortest"
)

// The oracle: the three-pass factor update CPALSWith ran before
// updateFactor — widen, solveSymmetric's multiply, per-column norm and
// scale, gram — kept as it was so the fused update can be held to it bit
// for bit.

func solveSymmetric(a []float64, n int, b []float64, m int) error {
	inv, err := invertOf(a, n)
	if err != nil {
		return err
	}
	tmp := make([]float64, n)
	for r := 0; r < m; r++ {
		row := b[r*n : (r+1)*n]
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += row[k] * inv[k*n+j]
			}
			tmp[j] = s
		}
		copy(row, tmp)
	}
	return nil
}

func gram(a *tensor.Matrix) []float64 {
	r := a.Cols
	g := make([]float64, r*r)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for p := 0; p < r; p++ {
			vp := float64(row[p])
			for q := p; q < r; q++ {
				g[p*r+q] += vp * float64(row[q])
			}
		}
	}
	for p := 0; p < r; p++ {
		for q := 0; q < p; q++ {
			g[p*r+q] = g[q*r+p]
		}
	}
	return g
}

func oracleUpdate(t *testing.T, mt, an *tensor.Matrix, v, lambda []float64) []float64 {
	rank := an.Cols
	anData := make([]float64, an.Rows*rank)
	for i := range anData {
		anData[i] = float64(mt.Data[i])
	}
	if err := solveSymmetric(v, rank, anData, an.Rows); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rank; r++ {
		var s float64
		for i := 0; i < an.Rows; i++ {
			val := anData[i*rank+r]
			s += val * val
		}
		norm := math.Sqrt(s)
		lambda[r] = norm
		inv := 0.0
		if norm > 0 {
			inv = 1 / norm
		}
		for i := 0; i < an.Rows; i++ {
			an.Data[i*rank+r] = tensor.Value(anData[i*rank+r] * inv)
		}
	}
	return gram(an)
}

// updateCase builds a random Mttkrp result and a well-conditioned SPD V.
// With zeroCol >= 0 that column of M is zero and V decouples it, so the
// product's column is exactly zero (norm 0 → scale 0).
func updateCase(rows, rank, zeroCol int, seed int64) (*tensor.Matrix, []float64) {
	rng := rand.New(rand.NewSource(seed))
	mt := tensor.NewMatrix(rows, rank)
	for i := range mt.Data {
		mt.Data[i] = tensor.Value(rng.NormFloat64())
	}
	v := make([]float64, rank*rank)
	for i := 0; i < rank+3; i++ {
		g := make([]float64, rank)
		for r := range g {
			g[r] = rng.Float64()
		}
		for p := range g {
			for q := range g {
				v[p*rank+q] += g[p] * g[q]
			}
		}
	}
	for r := 0; r < rank; r++ {
		v[r*rank+r]++
	}
	if zeroCol >= 0 {
		for k := 0; k < rank; k++ {
			v[zeroCol*rank+k], v[k*rank+zeroCol] = 0, 0
		}
		v[zeroCol*rank+zeroCol] = 1
		for i := 0; i < rows; i++ {
			mt.Data[i*rank+zeroCol] = 0
		}
	}
	return mt, v
}

// allRows is the occupancy list of a mode without an empty slice.
func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

func TestUpdateFactorMatchesOracle(t *testing.T) {
	for _, rank := range []int{1, 3, 4, 5, 8, 12, 16, 17, 20, 32} {
		for _, rows := range []int{0, 1, 63, 64, 65, 1000} {
			for _, zeroCol := range []int{-1, rank / 2} {
				mt, v := updateCase(rows, rank, zeroCol, int64(rank*10000+rows))
				want := tensor.NewMatrix(rows, rank)
				wantLambda := make([]float64, rank)
				wantGram := oracleUpdate(t, mt, want, v, wantLambda)

				got := tensor.NewMatrix(rows, rank)
				w := newCPWorkspace([]*tensor.Matrix{got}, rank, [][]int{allRows(rows)})
				copy(w.v, v)
				if err := invertSPD(w.v, w.elim, w.inv, rank); err != nil {
					t.Fatal(err)
				}
				lambda := make([]float64, rank)
				w.updateFactor(mt, got, lambda, w.grams[0], w.occ[0])

				name := fmt.Sprintf("R=%d rows=%d zeroCol=%d", rank, rows, zeroCol)
				for i := range want.Data {
					if math.Float32bits(float32(got.Data[i])) != math.Float32bits(float32(want.Data[i])) {
						t.Fatalf("%s: factor[%d] = %v, oracle %v", name, i, got.Data[i], want.Data[i])
					}
				}
				if !sameBits(lambda, wantLambda) {
					t.Fatalf("%s: lambda %v, oracle %v", name, lambda, wantLambda)
				}
				if !sameBits(w.grams[0], wantGram) {
					t.Fatalf("%s: gram differs from the oracle", name)
				}
				if zeroCol >= 0 && rows > 0 && lambda[zeroCol] != 0 {
					t.Fatalf("%s: zero column has norm %v", name, lambda[zeroCol])
				}
			}
		}
	}
}

// withBody runs f on the assembly bodies (asm) or the Go loops.
func withBody(asm bool, f func()) {
	defer func(on bool) { cpu.AVX2 = on }(cpu.AVX2)
	cpu.AVX2 = asm
	f()
}

// TestDenseBodiesMatchGo holds the assembly product and gram to the Go
// loops bit for bit: every rank from 1 to 40 (each residue mod 4 and 16),
// occupancy lists with gaps of 0 to 200 rows, and operands either plain
// or salted with ±0, subnormals and values whose products overflow.
func TestDenseBodiesMatchGo(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("no AVX2 body on this CPU or port")
	}
	rng := rand.New(rand.NewSource(26))
	negZero := math.Copysign(0, -1)
	salted := false
	salt := func(normal float64, special []float64) float64 {
		if salted && rng.Intn(4) == 0 {
			return special[rng.Intn(len(special))]
		}
		return normal
	}
	wide := []float64{0, negZero, 5e-324, -2.5e-320, 1e300, -1e300}
	narrow := []float64{0, negZero, 1e-45, -3e-39, 3e38, -3e38}
	for rank := 1; rank <= 40; rank++ {
		for _, nocc := range []int{0, 1, 63, 64, 65, 200} {
			for _, salted = range []bool{false, true} {
				factorRows := 2*nocc + 3
				occ := rng.Perm(factorRows)[:nocc]
				slices.Sort(occ)
				src := make([]tensor.Value, factorRows*rank)
				for i := range src {
					src[i] = tensor.Value(salt(rng.NormFloat64(), narrow))
				}
				init := tensor.NewMatrix(factorRows, rank)
				for i := range init.Data {
					init.Data[i] = tensor.Value(salt(rng.Float64(), narrow))
				}
				sq, scale := make([]float64, rank*rank), make([]float64, rank)
				for i := range sq {
					sq[i] = salt(rng.NormFloat64(), wide)
				}
				for i := range scale {
					scale[i] = salt(rng.Float64(), wide)
				}
				type result struct {
					rows, sumsq, gram, scaledGram []float64
					factor                        []tensor.Value
				}
				run := func(asm bool) (r result) {
					withBody(asm, func() {
						an := &tensor.Matrix{Rows: factorRows, Cols: rank, Data: slices.Clone(init.Data)}
						w := newCPWorkspace([]*tensor.Matrix{tensor.NewMatrix(factorRows, rank)}, rank, [][]int{occ})
						w.mulSquare(src, sq, occ)
						r.rows, r.sumsq = slices.Clone(w.rows[:nocc*rank]), slices.Clone(w.sumsq)
						r.gram, r.scaledGram = make([]float64, rank*rank), make([]float64, rank*rank)
						w.gramInto(r.gram, an, nil, occ)
						w.gramInto(r.scaledGram, an, scale, occ)
						r.factor = an.Data
					})
					return r
				}
				got, want := run(true), run(false)
				name := fmt.Sprintf("R=%d rows=%d salted=%v", rank, nocc, salted)
				for what, pair := range map[string][2][]float64{
					"product": {got.rows, want.rows}, "sumsq": {got.sumsq, want.sumsq},
					"gram": {got.gram, want.gram}, "scaled gram": {got.scaledGram, want.scaledGram},
				} {
					if !sameBits(pair[0], pair[1]) {
						t.Fatalf("%s: %s differs from the Go loop:\n%v\n%v", name, what, pair[0], pair[1])
					}
				}
				for i := range got.factor {
					if math.Float32bits(got.factor[i]) != math.Float32bits(want.factor[i]) {
						t.Fatalf("%s: factor[%d] = %v, Go loop %v", name, i, got.factor[i], want.factor[i])
					}
				}
			}
		}
	}
}

func cpHash(res *CPResult) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range res.Factors {
		for _, v := range f.Data {
			binary.LittleEndian.PutUint32(b[:4], math.Float32bits(float32(v)))
			h.Write(b[:4])
		}
	}
	for _, l := range append(append([]float64(nil), res.Lambda...), res.Fit) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(l))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestCPALSGolden pins whole runs to hashes of factors + λ + fit frozen
// from the three-pass solver (commit 15cdaac, amd64, one thread).
func TestCPALSGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes were frozen on amd64; other ports may fuse multiply-add")
	}
	golden := map[string]uint64{
		"irrS/6":    0x86e3ce6b2d578f67,
		"irrS/16":   0x128b661a00bd8ad4,
		"regS4d/6":  0x1b9bde9ed6dc4507,
		"regS4d/16": 0xb3ad032215a24dd8,
	}
	seen := 0
	for _, c := range tensortest.Corpus(t) {
		for _, rank := range []int{6, 16} {
			want, ok := golden[fmt.Sprintf("%s/%d", c.Name, rank)]
			if !ok {
				continue
			}
			seen++
			res, err := CPALS(c.X, rank, 4, 0, 7, parallel.Options{Schedule: parallel.Static, Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got := cpHash(res); got != want {
				t.Errorf("%s rank %d: hash %#x, frozen %#x (fit %v)", c.Name, rank, got, want, res.Fit)
			}
		}
	}
	if seen != len(golden) {
		t.Fatalf("ran %d of %d golden cases", seen, len(golden))
	}
}

// oracleMultiply is NNCP's multiplicative update over every row, each
// denominator taken from the row as it was; it returns the new gram.
func oracleMultiply(mt, an *tensor.Matrix, v []float64) []float64 {
	rank := an.Cols
	denom := make([]float64, rank)
	for i := 0; i < an.Rows; i++ {
		row := an.Row(i)
		for j := range denom {
			denom[j] = 0
			for k, a := range row {
				denom[j] += float64(a) * v[k*rank+j]
			}
		}
		for j, d := range denom {
			row[j] = tensor.Value(float64(row[j]) * float64(mt.At(i, j)) / (d + 1e-12))
		}
	}
	return gram(an)
}

// oracleSweeps is alsSweeps over every row of every factor, rows of empty
// slices included: the driver's seeded factors, a gram per mode, then the
// full-row oracle update per mode and the fit identity summed over all
// rows of the last mode.
func oracleSweeps(t *testing.T, x *tensor.COO, rank, sweeps int, seed int64, nonneg bool) *CPResult {
	rng := rand.New(rand.NewSource(seed))
	res := &CPResult{Factors: make([]*tensor.Matrix, x.Order()), Lambda: make([]float64, rank)}
	grams := make([][]float64, x.Order())
	for n := range res.Factors {
		res.Factors[n] = tensor.NewMatrix(int(x.Dims[n]), rank)
		res.Factors[n].Randomize(rng)
		grams[n] = gram(res.Factors[n])
	}
	mttkrp, err := planMttkrp(x, rank, parallel.Options{Schedule: parallel.Static, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	hadamard := func(skip int) []float64 {
		v := make([]float64, rank*rank)
		for i := range v {
			v[i] = 1
			for m, g := range grams {
				if m != skip {
					v[i] *= g[i]
				}
			}
		}
		return v
	}
	for it := 0; it < sweeps; it++ {
		var mt *tensor.Matrix
		for n, an := range res.Factors {
			if mt, err = mttkrp(n, res.Factors); err != nil {
				t.Fatal(err)
			}
			if nonneg {
				grams[n] = oracleMultiply(mt, an, hadamard(n))
				for r := range res.Lambda {
					res.Lambda[r] = 1
				}
			} else {
				grams[n] = oracleUpdate(t, mt, an, hadamard(n), res.Lambda)
			}
		}
		var normEst, inner float64
		v := hadamard(-1)
		for r := 0; r < rank; r++ {
			for s := 0; s < rank; s++ {
				normEst += res.Lambda[r] * res.Lambda[s] * v[r*rank+s]
			}
		}
		an := res.Factors[x.Order()-1]
		for i := range an.Data {
			inner += float64(mt.Data[i]) * float64(an.Data[i]) * res.Lambda[i%rank]
		}
		normX := frobeniusNorm(x)
		res.Fit = 1 - math.Sqrt(max(normX*normX-2*inner+normEst, 0))/normX
	}
	return res
}

// TestEmptySliceRowsStayZero holds the occupied-row update to the
// full-row oracle on tensors with empty slices — two corpus recipes and a
// hand-made tensor whose first, last and a middle index of every mode
// never occur — and on a dense one, whose lists are every row: a row of
// an empty slice is exactly +0 after the first sweep, every other row,
// λ and the fit carry the oracle's bits.
func TestEmptySliceRowsStayZero(t *testing.T) {
	type tcase struct {
		name  string
		x     *tensor.COO
		empty bool // the tensor must have an empty slice
	}
	var cases []tcase
	for _, c := range tensortest.Corpus(t) {
		if c.Name == "irrS" || c.Name == "regS4d" {
			cases = append(cases, tcase{c.Name, c.X, true})
		}
	}
	rng := rand.New(rand.NewSource(5))
	gaps := tensor.NewCOO([]tensor.Index{9, 70, 8}, 0)
	dense := tensor.NewCOO([]tensor.Index{6, 5, 4}, 0)
	for i := tensor.Index(0); i < 9; i++ {
		for j := tensor.Index(0); j < 70; j++ {
			for k := tensor.Index(0); k < 8; k++ {
				v := tensor.Value(0.1 + rng.Float64())
				if i%4 != 0 && j%69 != 0 && j != 33 && k%7 != 0 && k != 3 && rng.Intn(3) == 0 {
					gaps.Append([]tensor.Index{i, j, k}, v)
				}
				if i < 6 && j < 5 && k < 4 {
					dense.Append([]tensor.Index{i, j, k}, v)
				}
			}
		}
	}
	cases = append(cases, tcase{"gaps", gaps, true}, tcase{"dense", dense, false})

	opt := parallel.Options{Schedule: parallel.Static, Threads: 1}
	solvers := []struct {
		name   string
		run    func(x *tensor.COO, rank, sweeps int, tol float64, seed int64, opt parallel.Options) (*CPResult, error)
		nonneg bool
	}{{"CPALS", CPALS, false}, {"NNCP", NNCP, true}}
	for _, c := range cases {
		for _, solver := range solvers {
			for _, sweeps := range []int{1, 3} {
				name := fmt.Sprintf("%s/%s/%d", c.name, solver.name, sweeps)
				const rank, seed = 5, 3
				got, err := solver.run(c.x, rank, sweeps, 0, seed, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want := oracleSweeps(t, c.x, rank, sweeps, seed, solver.nonneg)
				empties := 0
				for n, f := range got.Factors {
					occupied := make([]bool, f.Rows)
					for _, i := range c.x.Inds[n] {
						occupied[i] = true
					}
					visited := 0
					for i, occ := range occupied {
						for r, v := range f.Row(i) {
							switch bits := math.Float32bits(v); {
							case !occ && bits != 0:
								t.Fatalf("%s: mode %d row %d of an empty slice holds %v (bits %#x)", name, n, i, v, bits)
							case bits != math.Float32bits(want.Factors[n].At(i, r)):
								t.Fatalf("%s: mode %d row %d col %d = %v, full-row oracle %v", name, n, i, r, v, want.Factors[n].At(i, r))
							}
						}
						if occ {
							visited++
						}
					}
					if got.OccupiedRows[n] != visited {
						t.Fatalf("%s: OccupiedRows[%d] = %d, %d indices occur", name, n, got.OccupiedRows[n], visited)
					}
					empties += f.Rows - visited
				}
				if c.empty == (empties == 0) {
					t.Fatalf("%s: %d rows of empty slices", name, empties)
				}
				if g, w := cpHash(got), cpHash(want); g != w {
					t.Fatalf("%s: hash %#x (λ %v fit %v), full-row oracle %#x (λ %v fit %v)", name, g, got.Lambda, got.Fit, w, want.Lambda, want.Fit)
				}
			}
		}
	}
}

// TestCPALSWithRejectsWrongShape: the injected executor's result is
// checked where it is received — a nil or mis-shaped matrix is an algo:
// error naming the mode, never an index panic inside the update.
func TestCPALSWithRejectsWrongShape(t *testing.T) {
	x := tensor.RandomCOO([]tensor.Index{12, 10, 8}, 200, rand.New(rand.NewSource(4)))
	const rank = 4
	for name, bad := range map[string]*tensor.Matrix{
		"nil":       nil,
		"short":     tensor.NewMatrix(9, rank),
		"long":      tensor.NewMatrix(11, rank),
		"narrow":    tensor.NewMatrix(10, rank-1),
		"wide":      tensor.NewMatrix(10, rank+1),
		"transpose": tensor.NewMatrix(rank, 10),
	} {
		exec, err := planMttkrp(x, rank, parallel.Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, err = CPALSWith(x, rank, 2, 0, 1, func(mode int, factors []*tensor.Matrix) (*tensor.Matrix, error) {
			if mode == 1 {
				return bad, nil
			}
			return exec(mode, factors)
		})
		if err == nil || !strings.HasPrefix(err.Error(), "algo: mode-1 Mttkrp") || !strings.Contains(err.Error(), "10x4") {
			t.Fatalf("%s: err = %v, want an algo: error naming mode 1 and the 10x4 factor", name, err)
		}
	}
}

func TestSingularGramInverse(t *testing.T) {
	for _, a := range [][]float64{
		{1, 1, 1, 1},
		{1, 2, 2, math.Nextafter(4, 5)},
		{0, 0, 0, 0},
	} {
		inv, err := invertOf(a, 2)
		if err != nil {
			if !errors.Is(err, ErrSingularGram) {
				t.Fatalf("%v: untyped error %v", a, err)
			}
			continue
		}
		for _, x := range inv {
			if !(math.Abs(x) < 1e13) {
				t.Fatalf("%v: inverse %v went through without a ridge", a, inv)
			}
		}
	}
}

func TestSingularGramRankAboveDims(t *testing.T) {
	x := tensor.NewCOO([]tensor.Index{3, 3}, 9)
	for i := tensor.Index(0); i < 3; i++ {
		for j := tensor.Index(0); j < 3; j++ {
			x.Append([]tensor.Index{i, j}, tensor.Value(1+i*3+j))
		}
	}
	res, err := CPALS(x, 8, 20, 1e-9, 1, parallel.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Fit >= 0 && res.Fit <= 1) {
		t.Fatalf("fit %v at rank 8 on a 3x3 matrix", res.Fit)
	}
	// The identity behind Fit cancels badly once λ is large, so also
	// measure the model itself.
	var miss float64
	for i, v := range x.Vals {
		d := res.ReconstructAt([]tensor.Index{x.Inds[0][i], x.Inds[1][i]}) - float64(v)
		miss += d * d
	}
	if rel := math.Sqrt(miss) / frobeniusNorm(x); rel > 0.05 {
		t.Fatalf("model misses X by %.3g of its norm", rel)
	}
	for n, f := range res.Factors {
		for _, v := range f.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("factor %d holds %v", n, v)
			}
		}
	}
	for _, l := range res.Lambda {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("lambda %v", res.Lambda)
		}
	}
}

// TestCPALSAllocsIndependentOfSweeps: the workspace and the occupancy
// lists (the tensor has empty slices in its first two modes) are built
// once per call, so ten sweeps allocate exactly what one does — and that
// is what no sweep does, plus the sweep records.
func TestCPALSAllocsIndependentOfSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.RandomCOO([]tensor.Index{700, 500, 9}, 400, rng)
	const rank = 8
	ms := make([]*tensor.Matrix, x.Order())
	for n := range ms {
		ms[n] = tensor.NewMatrix(int(x.Dims[n]), rank)
		ms[n].Randomize(rng)
	}
	noop := func(mode int, _ []*tensor.Matrix) (*tensor.Matrix, error) { return ms[mode], nil }
	allocs := func(sweeps int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := CPALSWith(x, rank, sweeps, 0, 1, noop); err != nil {
				t.Fatal(err)
			}
		})
	}
	if zero, one, ten := allocs(0), allocs(1), allocs(10); one != ten || zero != one-1 {
		t.Fatalf("0 sweeps allocate %v times, 1 sweep %v, 10 sweeps %v", zero, one, ten)
	}
}

func TestCPSweepsRecordEverySweep(t *testing.T) {
	x := tensor.RandomCOO([]tensor.Index{30, 25, 20}, 700, rand.New(rand.NewSource(33)))
	cp, err := CPALS(x, 4, 6, 0, 1, parallel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nn, err := NNCP(x, 4, 6, 0, 1, parallel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*CPResult{"CPALS": cp, "NNCP": nn} {
		if res.Iters != 6 || len(res.Sweeps) != res.Iters {
			t.Fatalf("%s: %d sweep records for %d sweeps", name, len(res.Sweeps), res.Iters)
		}
		for i, s := range res.Sweeps {
			if s.MttkrpSeconds <= 0 || s.MttkrpSeconds > s.Seconds {
				t.Fatalf("%s sweep %d: %v s in Mttkrp of %v s", name, i, s.MttkrpSeconds, s.Seconds)
			}
		}
		if last := res.Sweeps[len(res.Sweeps)-1]; last.Fit != res.Fit {
			t.Fatalf("%s: last sweep fit %v, result fit %v", name, last.Fit, res.Fit)
		}
	}
}

// BenchmarkCPALSUpdate times one updateFactor (product, normalisation,
// gram) on a 10000-row factor, every row occupied and every fourth, on
// the Go loops and on the assembly bodies, and reports it per factor row.
// R = 20 adds the assembly's four-column remainder loops to its
// sixteen-column ones.
func BenchmarkCPALSUpdate(b *testing.B) {
	const rows = 10000
	for _, rank := range []int{16, 20, 32} {
		for _, every := range []int{1, 4} {
			for _, body := range []string{"go", "asm"} {
				asm := body == "asm"
				name := fmt.Sprintf("R=%d", rank)
				if every > 1 {
					name += fmt.Sprintf("/occupied=%d", rows/every)
				}
				b.Run(name+"/body="+body, func(b *testing.B) {
					if asm && !cpu.AVX2 {
						b.Skip("no AVX2 body on this CPU or port")
					}
					mt, v := updateCase(rows, rank, -1, 1)
					var occ []int
					for i := 0; i < rows; i += every {
						occ = append(occ, i)
					}
					an := tensor.NewMatrix(rows, rank)
					w := newCPWorkspace([]*tensor.Matrix{an}, rank, [][]int{occ})
					copy(w.v, v)
					if err := invertSPD(w.v, w.elim, w.inv, rank); err != nil {
						b.Fatal(err)
					}
					lambda := make([]float64, rank)
					withBody(asm, func() {
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							w.updateFactor(mt, an, lambda, w.grams[0], occ)
						}
					})
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
				})
			}
		}
	}
}

// BenchmarkCPALS times whole CP-ALS calls as the benchmark's cpals_x cell
// makes them — rank 16, three sweeps — on one thread, over the service
// tensors of its three workloads (the recipes at 1/8 of the main tensor's
// non-zeros), and reports the dense side: milliseconds per call outside
// Mttkrp, from CPResult.Sweeps.
func BenchmarkCPALS(b *testing.B) {
	for _, c := range []struct {
		recipe string
		nnz    int
	}{{"irrS", 37500}, {"regS4d", 12500}, {"nell2", 5000}} {
		e, err := dataset.ByID(c.recipe)
		if err != nil {
			b.Fatal(err)
		}
		x, err := dataset.Materialize(e, c.nnz, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.recipe, func(b *testing.B) {
			var dense float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := CPALS(x, 16, 3, 0, 1, parallel.Options{Schedule: parallel.Static, Threads: 1})
				if err != nil {
					b.Fatal(err)
				}
				for _, s := range res.Sweeps {
					dense += s.Seconds - s.MttkrpSeconds
				}
			}
			b.ReportMetric(dense*1e3/float64(b.N), "dense-ms/op")
		})
	}
}
