package dist

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/tensor"
)

func TestAllReduceSum(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7} {
		c, err := NewComm(p)
		if err != nil {
			t.Fatal(err)
		}
		n := 37
		bufs := make([][]tensor.Value, p)
		want := make([]tensor.Value, n)
		for r := 0; r < p; r++ {
			bufs[r] = make([]tensor.Value, n)
			for i := range bufs[r] {
				bufs[r][i] = tensor.Value(r*100 + i)
				want[i] += bufs[r][i]
			}
		}
		errs := make([]error, p)
		c.Run(func(rank int) { errs[rank] = c.AllReduceSum(rank, bufs[rank]) })
		for r := 0; r < p; r++ {
			if errs[r] != nil {
				t.Fatalf("p=%d rank %d: %v", p, r, errs[r])
			}
			for i := range want {
				if math.Abs(float64(bufs[r][i]-want[i])) > 1e-3 {
					t.Fatalf("p=%d rank %d element %d = %v, want %v", p, r, i, bufs[r][i], want[i])
				}
			}
		}
		// Exact volume accounting: Stats must equal the closed-form model.
		bytes, msgs := c.Stats()
		wantBytes, wantMsgs := AllReduceVolume(n, p)
		if msgs != wantMsgs || bytes != wantBytes {
			t.Fatalf("p=%d: (%d bytes, %d msgs), want (%d, %d)", p, bytes, msgs, wantBytes, wantMsgs)
		}
		if p > 1 && msgs != int64(2*(p-1)*p) {
			t.Fatalf("p=%d: %d messages, want %d", p, msgs, 2*(p-1)*p)
		}
		if p == 1 && msgs != 0 {
			t.Fatal("single rank should not communicate")
		}
	}
}

func TestAllReduceSumProperty(t *testing.T) {
	f := func(seed int64, pRaw, nRaw uint8) bool {
		p := int(pRaw)%6 + 1
		n := int(nRaw)%100 + 1
		rng := rand.New(rand.NewSource(seed))
		c, err := NewComm(p)
		if err != nil {
			return false
		}
		bufs := make([][]tensor.Value, p)
		want := make([]float64, n)
		for r := 0; r < p; r++ {
			bufs[r] = make([]tensor.Value, n)
			for i := range bufs[r] {
				bufs[r][i] = tensor.Value(rng.Float64())
				want[i] += float64(bufs[r][i])
			}
		}
		c.Run(func(rank int) {
			if err := c.AllReduceSum(rank, bufs[rank]); err != nil {
				panic(err)
			}
		})
		for r := 0; r < p; r++ {
			for i := range want {
				if math.Abs(float64(bufs[r][i])-want[i]) > 1e-4 {
					return false
				}
			}
		}
		// Stats must match the closed-form volume model for every (n, p).
		bytes, msgs := c.Stats()
		wantBytes, wantMsgs := AllReduceVolume(n, p)
		return bytes == wantBytes && msgs == wantMsgs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAllReduceSumShortBuffer pins the n < p accounting: with fewer
// values than ranks, some ring segments are empty and must move zero
// bytes AND zero messages. Before the fix every empty segment still
// counted one message (2(P-1)P total regardless of n), inflating
// Stats() and the alpha-beta latency term modeled from it.
func TestAllReduceSumShortBuffer(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{1, 4}, {2, 5}, {3, 7}, {6, 8}} {
		c, err := NewComm(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		bufs := make([][]tensor.Value, tc.p)
		want := make([]tensor.Value, tc.n)
		for r := 0; r < tc.p; r++ {
			bufs[r] = make([]tensor.Value, tc.n)
			for i := range bufs[r] {
				bufs[r][i] = tensor.Value(r*10 + i + 1)
				want[i] += bufs[r][i]
			}
		}
		c.Run(func(rank int) {
			if err := c.AllReduceSum(rank, bufs[rank]); err != nil {
				panic(err)
			}
		})
		for r := 0; r < tc.p; r++ {
			for i := range want {
				if math.Abs(float64(bufs[r][i]-want[i])) > 1e-3 {
					t.Fatalf("n=%d p=%d rank %d element %d = %v, want %v",
						tc.n, tc.p, r, i, bufs[r][i], want[i])
				}
			}
		}
		// Each of the n non-empty segments circulates the ring P-1 times
		// per phase (reduce-scatter + allgather): 2(P-1)·n messages, each
		// carrying exactly one value here since n < p ⇒ segment size ≤ 1.
		bytes, msgs := c.Stats()
		wantMsgs := int64(2 * (tc.p - 1) * tc.n)
		if msgs != wantMsgs {
			t.Fatalf("n=%d p=%d: %d messages, want %d", tc.n, tc.p, msgs, wantMsgs)
		}
		if bytes != wantMsgs*tensor.ValueBytes {
			t.Fatalf("n=%d p=%d: %d bytes, want %d (tensor.ValueBytes=%d per message)",
				tc.n, tc.p, bytes, wantMsgs*tensor.ValueBytes, tensor.ValueBytes)
		}
		if wb, wm := AllReduceVolume(tc.n, tc.p); wb != bytes || wm != msgs {
			t.Fatalf("n=%d p=%d: AllReduceVolume=(%d,%d) disagrees with measured (%d,%d)",
				tc.n, tc.p, wb, wm, bytes, msgs)
		}
	}
}

// TestValueBytesDerived pins the byte accounting to the real value size:
// a full-segment allreduce must charge exactly tensor.ValueBytes per value
// moved, with tensor.ValueBytes derived from tensor.Value rather than a
// hardcoded 4.
func TestValueBytesDerived(t *testing.T) {
	p, n := 4, 32 // n divisible by p: every segment has n/p values
	c, err := NewComm(p)
	if err != nil {
		t.Fatal(err)
	}
	bufs := make([][]tensor.Value, p)
	for r := range bufs {
		bufs[r] = make([]tensor.Value, n)
	}
	c.Run(func(rank int) {
		if err := c.AllReduceSum(rank, bufs[rank]); err != nil {
			panic(err)
		}
	})
	bytes, msgs := c.Stats()
	wantMsgs := int64(2 * (p - 1) * p)
	if msgs != wantMsgs {
		t.Fatalf("%d messages, want %d", msgs, wantMsgs)
	}
	if want := wantMsgs * int64(n/p) * tensor.ValueBytes; bytes != want {
		t.Fatalf("%d bytes, want %d", bytes, want)
	}
}

// TestAllReduceTimeShortBuffer: the modeled latency term must match the
// no-empty-message accounting — fewer values than ranks means fewer
// latency charges, never more.
func TestAllReduceTimeShortBuffer(t *testing.T) {
	nm := DefaultNetwork
	p := 8
	short := nm.AllReduceTime(2*tensor.ValueBytes, p)       // n=2 < p
	full := nm.AllReduceTime(tensor.ValueBytes*int64(p), p) // n=p
	if short <= 0 {
		t.Fatal("short-buffer allreduce should still cost time")
	}
	if short >= full {
		t.Fatalf("n<p allreduce modeled at %v, not below n=p cost %v", short, full)
	}
}

func TestNewCommError(t *testing.T) {
	if _, err := NewComm(0); err == nil {
		t.Fatal("expected error for zero ranks")
	}
}

// testMats returns order-many randomized factor matrices of rank r.
func testMats(x *tensor.COO, r int, rng *rand.Rand) []*tensor.Matrix {
	mats := make([]*tensor.Matrix, x.Order())
	for n := range mats {
		mats[n] = tensor.NewMatrix(int(x.Dims[n]), r)
		mats[n].Randomize(rng)
	}
	return mats
}

// TestDistributedMttkrpMatchesLocal checks the Engine's Mttkrp against
// the single-node kernel and pins its traffic exactly: the allreduce
// moves rows·R values across p ranks (AllReduceVolume), is charged
// AllReduceTime of that volume, and moves nothing at p = 1.
func TestDistributedMttkrpMatchesLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandomCOO([]tensor.Index{40, 35, 30}, 3000, rng)
	r := 8
	mats := testMats(x, r, rng)
	want, err := core.Mttkrp(x, mats, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 5} {
		for _, format := range []Format{FormatCOO, FormatHiCOO} {
			e, err := NewEngine(x, Options{Ranks: p, Format: format})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Mttkrp(context.Background(), 0, mats, r)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				g, w := float64(res.Out.Data[i]), float64(want.Data[i])
				if math.Abs(g-w) > 2e-3*math.Max(1, math.Abs(w)) {
					t.Fatalf("p=%d %v element %d: %v vs %v", p, format, i, g, w)
				}
			}
			n := int(x.Dims[0]) * r
			wantBytes, wantMsgs := AllReduceVolume(n, p)
			if res.CommBytes != wantBytes || res.CommMessages != wantMsgs {
				t.Fatalf("p=%d %v: measured (%d bytes, %d msgs), model assumes (%d, %d)",
					p, format, res.CommBytes, res.CommMessages, wantBytes, wantMsgs)
			}
			if want := DefaultNetwork.AllReduceTime(tensor.ValueBytes*int64(n), p); res.ModeledCommSec != want {
				t.Fatalf("p=%d %v: modeled %v, want %v", p, format, res.ModeledCommSec, want)
			}
			st := e.Stats()
			if st.CommBytes != wantBytes || st.CommMessages != wantMsgs || st.ModeledCommSec != res.ModeledCommSec {
				t.Fatalf("p=%d %v: Stats() %+v disagrees with the result %+v", p, format, st, *res)
			}
			if p == 1 && (res.CommBytes != 0 || res.CommMessages != 0 || res.ModeledCommSec != 0) {
				t.Fatalf("single rank should not communicate: %+v", *res)
			}
			if p > 1 && res.ModeledCommSec <= 0 {
				t.Fatal("modeled communication time missing")
			}
		}
	}
}

// TestDistributedMttkrpErrors pins the argument errors of both kernels:
// a mode out of range, a nil factor, a vector of the wrong length.
func TestDistributedMttkrpErrors(t *testing.T) {
	x := tensor.RandomCOO([]tensor.Index{5, 5, 5}, 20, rand.New(rand.NewSource(2)))
	ctx := context.Background()
	e, err := NewEngine(x, Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Mttkrp(ctx, 9, nil, 4); err == nil {
		t.Fatal("expected Mttkrp mode error")
	}
	if _, err := e.Ttv(ctx, -1, tensor.NewVector(5)); err == nil {
		t.Fatal("expected Ttv mode error")
	}
	if _, err := e.Ttv(ctx, 1, tensor.NewVector(3)); err == nil {
		t.Fatal("expected vector-length error")
	}
	withDeadline(t, "engine Mttkrp with a nil factor", func() {
		_, err = e.Mttkrp(ctx, 0, []*tensor.Matrix{nil}, 4)
	})
	if err == nil {
		t.Fatal("expected matrices error")
	}
}

// TestDistributedTtvMatchesLocal checks the Engine's Ttv against the
// single-node kernel and pins its gather traffic exactly: one message
// per non-root, non-empty fiber range (GatherVolume), charged
// GatherTime of those counts, nothing at p = 1.
func TestDistributedTtvMatchesLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.RandomCOO([]tensor.Index{30, 40, 25}, 2000, rng)
	v := tensor.RandomVector(40, rng)
	want, err := core.Ttv(x, v, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 3, 6} {
		e, err := NewEngine(x, Options{Ranks: p})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Ttv(context.Background(), 1, v)
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.AbsDiff(res.Out, want); d > 1e-3 {
			t.Fatalf("p=%d: diff %v", p, d)
		}
		mf := res.Out.NNZ()
		segLens := make([]int, p)
		for rank := 0; rank < p; rank++ {
			segLens[rank] = (rank+1)*mf/p - rank*mf/p
		}
		wantBytes, wantMsgs := GatherVolume(segLens)
		if res.CommBytes != wantBytes || res.CommMessages != wantMsgs {
			t.Fatalf("p=%d: measured (%d bytes, %d msgs), model assumes (%d, %d)",
				p, res.CommBytes, res.CommMessages, wantBytes, wantMsgs)
		}
		if want := DefaultNetwork.GatherTime(wantBytes, wantMsgs); res.ModeledCommSec != want {
			t.Fatalf("p=%d: modeled %v, want %v", p, res.ModeledCommSec, want)
		}
		st := e.Stats()
		if st.CommBytes != wantBytes || st.CommMessages != wantMsgs || st.ModeledCommSec != res.ModeledCommSec {
			t.Fatalf("p=%d: Stats() %+v disagrees with the result %+v", p, st, *res)
		}
		if p == 1 && (res.CommBytes != 0 || res.CommMessages != 0 || res.ModeledCommSec != 0) {
			t.Fatalf("single rank should not communicate: %+v", *res)
		}
		if p > 1 && (res.CommBytes <= 0 || res.CommMessages <= 0 || res.ModeledCommSec <= 0) {
			t.Fatalf("p=%d: gather not accounted: %+v", p, *res)
		}
	}
}

// NewCommMust is a test helper.
func NewCommMust(p int) *Comm {
	c, err := NewComm(p)
	if err != nil {
		panic(err)
	}
	return c
}

func TestAllReduceTimeModel(t *testing.T) {
	nm := DefaultNetwork
	if nm.AllReduceTime(1<<20, 1) != 0 {
		t.Fatal("single rank should cost nothing")
	}
	t2 := nm.AllReduceTime(1<<20, 2)
	t8 := nm.AllReduceTime(1<<20, 8)
	if t2 <= 0 || t8 <= t2 {
		t.Fatalf("alpha-beta model not monotone in ranks for fixed data: %v vs %v", t2, t8)
	}
	// Bandwidth term dominates for big payloads: time ≈ 2·vol/BW.
	big := nm.AllReduceTime(1<<30, 4)
	wantApprox := 2 * float64(1<<30) * 3 / 4 / (nm.BandwidthGBs * 1e9)
	if math.Abs(big-wantApprox)/wantApprox > 0.05 {
		t.Fatalf("large-payload time %v, want ≈ %v", big, wantApprox)
	}
}
