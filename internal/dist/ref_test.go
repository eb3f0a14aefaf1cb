package dist

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/algo"
	"repro/internal/kernelreg"
	"repro/internal/parallel"
	"repro/internal/roofline"
	"repro/internal/tensor"
	"repro/internal/tensortest"
)

// refRanks are the satellite-mandated worker counts: 7 exercises the
// non-divisor case (uneven shards, empty ring segments when buffers run
// short).
var refRanks = []int{1, 2, 4, 7}

// TestEngineMttkrpMatchesRegistryReference cross-checks the distributed
// MTTKRP — both shard formats, every mode, 1/2/4/7 ranks — against the
// registry's serial COO reference through the same canonicalization and
// tolerance the verification harness uses.
func TestEngineMttkrpMatchesRegistryReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	x := tensor.RandomCOO([]tensor.Index{40, 32, 24}, 4000, rng)
	wb := kernelreg.NewWorkbench(x, kernelreg.Config{})
	mats := wb.Mats()
	r := wb.R()
	ctx := context.Background()
	for mode := 0; mode < x.Order(); mode++ {
		ref, err := wb.Reference(ctx, roofline.Mttkrp, mode)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range refRanks {
			for _, format := range []Format{FormatCOO, FormatHiCOO} {
				e, err := NewEngine(x, Options{Ranks: p, Format: format})
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Mttkrp(context.Background(), mode, mats, r)
				if err != nil {
					t.Fatalf("p=%d %v mode=%d: %v", p, format, mode, err)
				}
				if dev := kernelreg.Compare(kernelreg.CanonOf(res.Out), ref); dev > 2e-3 {
					t.Fatalf("p=%d %v mode=%d: deviation %v vs serial COO reference", p, format, mode, dev)
				}
				wantBytes, wantMsgs := AllReduceVolume(int(x.Dims[mode])*r, p)
				if res.CommBytes != wantBytes || res.CommMessages != wantMsgs {
					t.Fatalf("p=%d %v mode=%d: measured (%d,%d), model assumes (%d,%d)",
						p, format, mode, res.CommBytes, res.CommMessages, wantBytes, wantMsgs)
				}
			}
		}
	}
}

// TestEngineTtvMatchesRegistryReference cross-checks the distributed
// Ttv against the registry reference for 1/2/4/7 ranks.
func TestEngineTtvMatchesRegistryReference(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	x := tensor.RandomCOO([]tensor.Index{30, 26, 22}, 2500, rng)
	wb := kernelreg.NewWorkbench(x, kernelreg.Config{})
	ctx := context.Background()
	for mode := 0; mode < x.Order(); mode++ {
		ref, err := wb.Reference(ctx, roofline.Ttv, mode)
		if err != nil {
			t.Fatal(err)
		}
		v := wb.Vec(mode)
		for _, p := range refRanks {
			e, err := NewEngine(x, Options{Ranks: p})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Ttv(context.Background(), mode, v)
			if err != nil {
				t.Fatalf("p=%d mode=%d: %v", p, mode, err)
			}
			if dev := kernelreg.Compare(kernelreg.CanonOf(res.Out), ref); dev > 2e-3 {
				t.Fatalf("p=%d mode=%d: deviation %v vs serial COO reference", p, mode, dev)
			}
		}
	}
}

// TestEngineCPALSMatchesSerial runs the full distributed CP-ALS sweep
// for 1/2/4/7 ranks and checks it lands on the serial solver's
// trajectory: same deterministic initialization, so fits must agree to
// the reduction-order tolerance and factors must reconstruct the same
// model. The second tensor leaves three of every four slices of its
// first two modes empty: the shared solver visits only the occupied
// rows, so the others must be exactly zero on both sides and every
// factor entry must agree.
func TestEngineCPALSMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	full := tensor.RandomCOO([]tensor.Index{24, 20, 16}, 1800, rng)
	sparse := tensor.RandomCOO([]tensor.Index{24, 20, 16}, 1800, rng)
	sparse.Dims[0], sparse.Dims[1] = 4*24, 4*20
	for z := range sparse.Vals {
		sparse.Inds[0][z] = 4*sparse.Inds[0][z] + 1
		sparse.Inds[1][z] = 4*sparse.Inds[1][z] + 3
	}
	const (
		rank  = 4
		iters = 6
		tol   = 0.0
		seed  = 99
	)
	for name, x := range map[string]*tensor.COO{"full": full, "empty-slices": sparse} {
		want, err := algo.CPALS(x, rank, iters, tol, seed, parallel.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range refRanks {
			for _, format := range []Format{FormatCOO, FormatHiCOO} {
				e, err := NewEngine(x, Options{Ranks: p, Format: format})
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.CPALS(context.Background(), rank, iters, tol, seed)
				if err != nil {
					t.Fatalf("%s p=%d %v: %v", name, p, format, err)
				}
				if got.Iters != want.Iters {
					t.Fatalf("%s p=%d %v: %d sweeps, serial ran %d", name, p, format, got.Iters, want.Iters)
				}
				if math.Abs(got.Fit-want.Fit) > 1e-3 {
					t.Fatalf("%s p=%d %v: fit %v, serial %v", name, p, format, got.Fit, want.Fit)
				}
				for n, f := range got.Factors {
					if got.OccupiedRows[n] != want.OccupiedRows[n] {
						t.Fatalf("%s p=%d %v: mode %d visits %d rows, serial %d", name, p, format, n, got.OccupiedRows[n], want.OccupiedRows[n])
					}
					for i, g := range f.Data {
						w := want.Factors[n].Data[i]
						if (w == 0) != (g == 0) || math.Abs(float64(g-w)) > 1e-2 {
							t.Fatalf("%s p=%d %v: factor %d[%d] = %v, serial %v", name, p, format, n, i, g, w)
						}
					}
				}
				// With the factors equal, equal weights make the models equal.
				for r, w := range want.Lambda {
					if g := got.Lambda[r]; math.Abs(g-w) > 1e-2*math.Max(1, math.Abs(w)) {
						t.Fatalf("%s p=%d %v: lambda[%d] = %v, serial %v", name, p, format, r, g, w)
					}
				}
			}
		}
	}
}

// TestEngineCPALSSurvivesWorkerLoss runs CP-ALS with a worker that dies
// partway through the sweep — the decomposition must complete on the
// survivors with the same answer.
func TestEngineCPALSSurvivesWorkerLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	x := tensor.RandomCOO([]tensor.Index{24, 20, 16}, 1800, rng)
	const (
		rank  = 4
		iters = 4
		seed  = 7
	)
	want, err := algo.CPALS(x, rank, iters, 0, seed, parallel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	e, err := NewEngine(x, Options{
		Ranks: 4,
		Inject: func(attempt, worker int) error {
			if worker == 3 {
				calls++
				if calls > 5 { // dies mid-decomposition, stays dead
					return errTestNodeLoss
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.CPALS(context.Background(), rank, iters, 0, seed)
	if err != nil {
		t.Fatalf("CP-ALS should survive worker loss via re-shard, got %v", err)
	}
	if math.Abs(got.Fit-want.Fit) > 1e-3 {
		t.Fatalf("fit %v after worker loss, serial %v", got.Fit, want.Fit)
	}
	st := e.Stats()
	if st.Workers != 3 || st.RankFailures != 1 || st.Reshards != 1 {
		t.Fatalf("stats %+v, want worker 3 removed after one failure + re-shard", st)
	}
}

var errTestNodeLoss = errorString("node lost mid-sweep")

type errorString string

func (e errorString) Error() string { return string(e) }

func cpHash(res *algo.CPResult) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range res.Factors {
		for _, v := range f.Data {
			binary.LittleEndian.PutUint32(b[:4], math.Float32bits(v))
			h.Write(b[:4])
		}
	}
	for _, l := range append(append([]float64(nil), res.Lambda...), res.Fit) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(l))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestEngineCPALSGolden pins CP-ALS with the engine's Mttkrp injected to
// hashes of factors + λ + fit frozen from the solver that drew every
// factor through rand.Rand.Float64, factor 0 included (commit 74eafb3,
// amd64): the bulk draw and the step over factor 0's draws must leave an
// injected executor's run bit for bit as it was. The COO hashes are
// TestCPALSGolden's rank-6 ones: the engine's COO ranks sum as the
// serial plan does.
func TestEngineCPALSGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes were frozen on amd64; other ports may fuse multiply-add")
	}
	golden := map[string]uint64{
		"irrS/COO/1":     0x86e3ce6b2d578f67,
		"irrS/COO/3":     0x86e3ce6b2d578f67,
		"irrS/HiCOO/3":   0x3d675717308012e4,
		"regS4d/COO/3":   0x1b9bde9ed6dc4507,
		"regS4d/HiCOO/3": 0x51bdb7ce8e684c45,
	}
	seen := 0
	for _, c := range tensortest.Corpus(t) {
		for _, format := range []Format{FormatCOO, FormatHiCOO} {
			for _, p := range []int{1, 3} {
				name := fmt.Sprintf("%s/%v/%d", c.Name, format, p)
				want, ok := golden[name]
				if !ok {
					continue
				}
				seen++
				e, err := NewEngine(c.X, Options{Ranks: p, Format: format})
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.CPALS(context.Background(), 6, 4, 0, 7)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := cpHash(res); got != want {
					t.Errorf("%s: hash %#x, frozen %#x (fit %v)", name, got, want, res.Fit)
				}
			}
		}
	}
	if seen != len(golden) {
		t.Fatalf("ran %d of %d golden cases", seen, len(golden))
	}
}
