package pasta_test

import (
	"context"
	"fmt"
	"math"

	pasta "repro"
)

// Example demonstrates the core workflow: generate a sparse tensor, run
// the preprocessing stage of a kernel once, and execute the value
// computation in parallel.
func Example() {
	rng := pasta.GenerateSeeded(1)
	x, err := pasta.Kronecker([]pasta.Index{64, 64, 64}, 1000, nil, rng)
	if err != nil {
		panic(err)
	}
	plan, err := pasta.PrepareTtv(x, 2) // preprocessing: sort, fptr, output alloc
	if err != nil {
		panic(err)
	}
	v := pasta.NewVector(64)
	for i := range v {
		v[i] = 1
	}
	y, err := plan.ExecuteOMP(v, pasta.Dynamic()) // the timed kernel stage
	if err != nil {
		panic(err)
	}
	fmt.Println("output order:", y.Order())
	fmt.Println("output non-zeros == fibers:", y.NNZ() == plan.NumFibers())
	// Output:
	// output order: 2
	// output non-zeros == fibers: true
}

// ExampleTs shows the simplest kernel: scaling every stored non-zero.
func ExampleTs() {
	x := pasta.NewCOO([]pasta.Index{2, 2}, 2)
	x.Append([]pasta.Index{0, 0}, 2)
	x.Append([]pasta.Index{1, 1}, 3)
	y, err := pasta.Ts(x, 10, pasta.OpMul)
	if err != nil {
		panic(err)
	}
	fmt.Println(y.Vals)
	// Output: [20 30]
}

// ExampleToHiCOO shows HiCOO conversion and its compression statistics.
func ExampleToHiCOO() {
	rng := pasta.GenerateSeeded(2)
	x := pasta.RandomCOO([]pasta.Index{128, 128, 128}, 20000, rng)
	h := pasta.ToHiCOO(x, pasta.DefaultBlockBits)
	st := h.ComputeStats()
	fmt.Println("block size:", h.BlockSize())
	fmt.Println("compresses vs COO:", st.CompressionVsCOO > 1)
	// Output:
	// block size: 128
	// compresses vs COO: true
}

// ExampleMttkrp runs the CP-decomposition bottleneck kernel.
func ExampleMttkrp() {
	x := pasta.NewCOO([]pasta.Index{2, 3, 4}, 1)
	x.Append([]pasta.Index{0, 1, 2}, 2)
	b := pasta.NewMatrix(3, 1)
	b.Set(1, 0, 5)
	c := pasta.NewMatrix(4, 1)
	c.Set(2, 0, 7)
	a, err := pasta.Mttkrp(x, []*pasta.Matrix{nil, b, c}, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println(a.At(0, 0)) // 2 * 5 * 7
	// Output: 70
}

// ExampleContract multiplies two sparse matrices as a tensor contraction.
func ExampleContract() {
	x := pasta.NewCOO([]pasta.Index{2, 3}, 2)
	x.Append([]pasta.Index{0, 0}, 2)
	x.Append([]pasta.Index{1, 2}, 3)
	y := pasta.NewCOO([]pasta.Index{3, 2}, 2)
	y.Append([]pasta.Index{0, 1}, 4)
	y.Append([]pasta.Index{2, 0}, 5)
	z, err := pasta.Contract(x, y, []int{1}, []int{0})
	if err != nil {
		panic(err)
	}
	v00, _ := z.At(0, 1)
	v10, _ := z.At(1, 0)
	fmt.Println(v00, v10)
	// Output: 8 15
}

// ExampleCPALS decomposes a tiny exactly-rank-1 tensor.
func ExampleCPALS() {
	// X(i,j) = u(i)·w(j) with u = (1,2), w = (3,4): exactly rank 1.
	x := pasta.NewCOO([]pasta.Index{2, 2}, 4)
	u := []pasta.Value{1, 2}
	w := []pasta.Value{3, 4}
	for i := pasta.Index(0); i < 2; i++ {
		for j := pasta.Index(0); j < 2; j++ {
			x.Append([]pasta.Index{i, j}, u[i]*w[j])
		}
	}
	res, err := pasta.CPALS(x, 1, 50, 1e-10, 1, pasta.Static())
	if err != nil {
		panic(err)
	}
	fmt.Println("recovered rank-1 structure:", res.Fit > 0.999)
	// Output: recovered rank-1 structure: true
}

// ExampleTuckerHOOI shows a Tucker decomposition at full ranks, which is
// exact by construction.
func ExampleTuckerHOOI() {
	rng := pasta.GenerateSeeded(4)
	x := pasta.RandomCOO([]pasta.Index{6, 5, 4}, 60, rng)
	res, err := pasta.TuckerHOOI(x, []int{6, 5, 4}, 10, 1e-9, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println("core dims:", res.Core.Dims)
	fmt.Println("exact at full ranks:", res.Fit > 0.999)
	// Output:
	// core dims: [6 5 4]
	// exact at full ranks: true
}

// ExampleDevice runs a kernel on the simulated GPU.
func ExampleDevice() {
	rng := pasta.GenerateSeeded(3)
	x := pasta.RandomCOO([]pasta.Index{32, 32, 32}, 500, rng)
	plan, err := pasta.PrepareTs(x, 2, pasta.OpMul)
	if err != nil {
		panic(err)
	}
	dev := pasta.NewDevice("example-gpu", 4)
	out := plan.ExecuteGPU(dev)
	fmt.Println("scaled:", out.Vals[0] == 2*x.Vals[0])
	// Output: scaled: true
}

// ExamplePowerMethod extracts the dominant rank-1 component of a sparse
// tensor with the higher-order power method, a chain of Ttv calls per
// iteration (§2.3), then deflates it and extracts the next one.
func ExamplePowerMethod() {
	rng := pasta.GenerateSeeded(99)
	x, err := pasta.Kronecker([]pasta.Index{256, 256, 256}, 20_000, nil, rng)
	if err != nil {
		panic(err)
	}
	r1, err := pasta.PowerMethod(x, 60, 1e-7, 5)
	if err != nil {
		panic(err)
	}
	// Deflate: subtract λ·u∘v∘w at the stored non-zeros.
	y := x.Clone()
	idx := make([]pasta.Index, y.Order())
	for m := 0; m < y.NNZ(); m++ {
		y.Entry(m, idx)
		est := pasta.Value(r1.Lambda)
		for n := range idx {
			est *= r1.Vectors[n][idx[n]]
		}
		y.Vals[m] -= est
	}
	r2, err := pasta.PowerMethod(y, 60, 1e-7, 6)
	if err != nil {
		panic(err)
	}
	fmt.Println("one unit vector per mode:", len(r1.Vectors))
	fmt.Println("the spectrum decays:", 0 < r2.Lambda && r2.Lambda < r1.Lambda)
	// Output:
	// one unit vector per mode: 3
	// the spectrum decays: true
}

// ExampleNewDistEngine runs Mttkrp on the sharded distributed engine:
// four simulated ranks each own a mode slab of the non-zeros, and a
// ring all-reduce sums their partials, moving 2·(P−1) copies of the
// 512×16 output, 4 bytes a value.
func ExampleNewDistEngine() {
	rng := pasta.GenerateSeeded(5)
	x, err := pasta.Kronecker([]pasta.Index{512, 512, 512}, 20_000, nil, rng)
	if err != nil {
		panic(err)
	}
	mats := make([]*pasta.Matrix, x.Order())
	for n := range mats {
		mats[n] = pasta.NewMatrix(int(x.Dim(n)), pasta.DefaultR)
		mats[n].Randomize(rng)
	}
	want, err := pasta.Mttkrp(x, mats, 0)
	if err != nil {
		panic(err)
	}
	e, err := pasta.NewDistEngine(x, pasta.DistOptions{Ranks: 4})
	if err != nil {
		panic(err)
	}
	res, err := e.Mttkrp(context.Background(), 0, mats, pasta.DefaultR)
	if err != nil {
		panic(err)
	}
	var worst float64
	for i, w := range want.Data {
		worst = max(worst, math.Abs(float64(res.Out.Data[i]-w)))
	}
	fmt.Println("bytes:", res.CommBytes, "messages:", res.CommMessages)
	fmt.Println("matches the single-node kernel:", worst < 1e-3)
	// Output:
	// bytes: 196608 messages: 24
	// matches the single-node kernel: true
}
