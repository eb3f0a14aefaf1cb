package algo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

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

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

func TestUpdateFactorMatchesOracle(t *testing.T) {
	for _, rank := range []int{1, 3, 4, 5, 16, 17, 32} {
		for _, rows := range []int{0, 1, 63, 64, 65, 1000} {
			for _, zeroCol := range []int{-1, rank / 2} {
				mt, v := updateCase(rows, rank, zeroCol, int64(rank*10000+rows))
				want := tensor.NewMatrix(rows, rank)
				wantLambda := make([]float64, rank)
				wantGram := oracleUpdate(t, mt, want, v, wantLambda)

				got := tensor.NewMatrix(rows, rank)
				w := newCPWorkspace([]*tensor.Matrix{got}, rank)
				copy(w.v, v)
				if err := invertSPD(w.v, w.elim, w.inv, rank); err != nil {
					t.Fatal(err)
				}
				lambda := make([]float64, rank)
				w.updateFactor(mt, got, lambda, w.grams[0])

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
	if rel := math.Sqrt(miss) / FrobeniusNorm(x); rel > 0.05 {
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

// TestCPALSAllocsIndependentOfSweeps: the workspace is built once, so ten
// sweeps allocate exactly what one does.
func TestCPALSAllocsIndependentOfSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.RandomCOO([]tensor.Index{70, 50, 9}, 400, rng)
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
	if one, ten := allocs(1), allocs(10); one != ten {
		t.Fatalf("1 sweep allocates %v times, 10 sweeps %v", one, ten)
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
// gram) on a 10000-row factor and reports it per row.
func BenchmarkCPALSUpdate(b *testing.B) {
	const rows = 10000
	for _, rank := range []int{16, 32} {
		b.Run(fmt.Sprintf("R=%d", rank), func(b *testing.B) {
			mt, v := updateCase(rows, rank, -1, 1)
			an := tensor.NewMatrix(rows, rank)
			w := newCPWorkspace([]*tensor.Matrix{an}, rank)
			copy(w.v, v)
			if err := invertSPD(w.v, w.elim, w.inv, rank); err != nil {
				b.Fatal(err)
			}
			lambda := make([]float64, rank)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.updateFactor(mt, an, lambda, w.grams[0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}
