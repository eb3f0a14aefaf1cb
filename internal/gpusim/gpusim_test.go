package gpusim

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
)

func TestDim3Count(t *testing.T) {
	cases := []struct {
		d    Dim3
		want int
	}{
		{Dim1(5), 5},
		{Dim2(3, 4), 12},
		{Dim3{X: 2, Y: 3, Z: 4}, 24},
		{Dim3{X: 7}, 7}, // zero Y/Z treated as 1
	}
	for _, c := range cases {
		if got := c.d.Count(); got != c.want {
			t.Errorf("Count(%+v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestLaunchCoversEveryThreadOnce(t *testing.T) {
	dev := NewDevice("test", 8)
	grid := Dim2(5, 3)
	block := Dim2(4, 2)
	total := grid.Count() * block.Count()
	seen := make([]int32, total)
	st := dev.Launch(grid, block, func(c Ctx) {
		// Linearize (block, thread) uniquely.
		b := c.BlockIdx.X + c.BlockIdx.Y*c.GridDim.X
		th := c.ThreadIdx.X + c.ThreadIdx.Y*c.BlockDim.X
		atomic.AddInt32(&seen[b*block.Count()+th], 1)
	})
	if st.Blocks != 15 || st.Threads != total {
		t.Fatalf("stats = %+v", st)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("thread %d executed %d times", i, c)
		}
	}
}

func TestLaunchCoverageProperty(t *testing.T) {
	dev := NewDevice("prop", 4)
	f := func(gxRaw, bxRaw, byRaw uint8) bool {
		gx := int(gxRaw)%20 + 1
		bx := int(bxRaw)%16 + 1
		by := int(byRaw)%8 + 1
		grid := Dim1(gx)
		block := Dim2(bx, by)
		var count atomic.Int64
		dev.Launch(grid, block, func(c Ctx) { count.Add(1) })
		return count.Load() == int64(gx*bx*by)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalIndices(t *testing.T) {
	dev := NewDevice("idx", 2)
	n := 1000
	block := Dim1(DefaultBlockThreads)
	grid := Grid1DFor(n, block.X)
	if grid.X != 4 {
		t.Fatalf("grid.X = %d, want 4", grid.X)
	}
	hits := make([]int32, n)
	dev.Launch(grid, block, func(c Ctx) {
		if i := c.GlobalX(); i < n {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("global index %d hit %d times", i, h)
		}
	}
}

func TestThreadsWithinBlockRunSequentially(t *testing.T) {
	// Within one block, thread order must be x-fastest with no
	// interleaving, so a non-atomic append is safe.
	dev := NewDevice("seq", 4)
	var order []int
	dev.Launch(Dim1(1), Dim2(3, 2), func(c Ctx) {
		order = append(order, c.ThreadIdx.Y*3+c.ThreadIdx.X)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("thread order %v, want ascending", order)
		}
	}
}

func TestAtomicAddUnderContention(t *testing.T) {
	dev := NewDevice("atomic", 16)
	var sum float32
	n := 4096
	dev.Launch(Grid1DFor(n, 256), Dim1(256), func(c Ctx) {
		if c.GlobalX() < n {
			AtomicAdd(&sum, 1)
		}
	})
	if sum != float32(n) {
		t.Fatalf("sum = %v, want %d", sum, n)
	}
}

func TestLaunchPanicsOnBadGeometry(t *testing.T) {
	dev := NewDevice("bad", 2)
	for name, fn := range map[string]func(){
		"negative grid": func() { dev.Launch(Dim1(-2), Dim1(1), func(Ctx) {}) },
		"huge block":    func() { dev.Launch(Dim1(1), Dim1(4096), func(Ctx) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCounters(t *testing.T) {
	dev := NewDevice("ctr", 2)
	dev.Launch(Dim1(3), Dim1(4), func(Ctx) {})
	dev.Launch(Dim1(2), Dim1(8), func(Ctx) {})
	k, b, th := dev.Counters()
	if k != 2 || b != 5 || th != 3*4+2*8 {
		t.Fatalf("counters = %d,%d,%d", k, b, th)
	}
}

func TestNewDeviceDefaults(t *testing.T) {
	dev := NewDevice("d", 0)
	if dev.SMs < 1 || dev.WarpSize != 32 || dev.MaxThreadsPerBlock != 1024 {
		t.Fatalf("defaults = %+v", dev)
	}
}

func TestGrid1DForEdgeCases(t *testing.T) {
	if g := Grid1DFor(0, 256); g.X != 1 {
		t.Fatalf("Grid1DFor(0) = %+v, want 1 block", g)
	}
	if g := Grid1DFor(256, 256); g.X != 1 {
		t.Fatalf("Grid1DFor(256) = %+v", g)
	}
	if g := Grid1DFor(257, 256); g.X != 2 {
		t.Fatalf("Grid1DFor(257) = %+v", g)
	}
	if g := Grid1DFor(100, 0); g.X != 1 {
		t.Fatalf("Grid1DFor default threads = %+v", g)
	}
}

func TestTryLaunchRejectsBadGeometry(t *testing.T) {
	dev := NewDevice("geom", 2)
	cases := map[string]struct{ grid, block Dim3 }{
		"zero grid":      {Dim3{}, Dim1(1)},
		"negative grid":  {Dim1(-3), Dim1(1)},
		"negative block": {Dim1(1), Dim3{X: -1, Y: 1, Z: 1}},
		"zero block":     {Dim1(1), Dim3{X: 0, Y: 0, Z: 0}},
		"block too big":  {Dim1(1), Dim1(4096)},
	}
	for name, c := range cases {
		ran := false
		_, err := dev.TryLaunch(c.grid, c.block, func(Ctx) { ran = true })
		var le *LaunchError
		if !errors.As(err, &le) {
			t.Errorf("%s: err = %v, want *LaunchError", name, err)
		}
		if ran {
			t.Errorf("%s: kernel ran despite invalid geometry", name)
		}
	}
	// Dim3{} counts as 1 point per zeroed axis via Count(), but an
	// all-zero grid is still a caller bug; make sure counters never
	// advanced for any rejected launch.
	if k, b, th := dev.Counters(); k != 0 || b != 0 || th != 0 {
		t.Fatalf("counters advanced on rejected launches: %d,%d,%d", k, b, th)
	}
}

func TestTryLaunchContainsWorkerPanic(t *testing.T) {
	dev := NewDevice("panic", 4)
	_, err := dev.TryLaunch(Dim1(64), Dim1(8), func(c Ctx) {
		if c.BlockIdx.X == 13 {
			panic("kernel bug in block 13")
		}
	})
	var wp *parallel.WorkerPanic
	if !errors.As(err, &wp) {
		t.Fatalf("err = %v (%T), want *parallel.WorkerPanic", err, err)
	}
	if wp.Value != "kernel bug in block 13" {
		t.Fatalf("panic value = %v", wp.Value)
	}
	if len(wp.Stack) == 0 {
		t.Fatal("expected the block worker's stack")
	}
	if k, _, _ := dev.Counters(); k != 0 {
		t.Fatalf("failed launch advanced kernel counter to %d", k)
	}
	// The device stays usable after a contained panic.
	if _, err := dev.TryLaunch(Dim1(4), Dim1(4), func(Ctx) {}); err != nil {
		t.Fatalf("follow-up launch failed: %v", err)
	}
}

func TestTryLaunchDeadlineMidGrid(t *testing.T) {
	dev := NewDevice("deadline", 2)
	ctx, cancel := context.WithCancel(context.Background())
	dev.SetContext(ctx)
	defer dev.SetContext(nil)

	var ran atomic.Int64
	_, err := dev.TryLaunch(Dim1(10000), Dim1(32), func(c Ctx) {
		if ran.Add(1) == 5 {
			cancel() // expire the device context mid-grid
		}
	})
	if !errors.Is(err, parallel.ErrDeadline) {
		t.Fatalf("err = %v, want parallel.ErrDeadline in chain", err)
	}
	if n := ran.Load(); n >= 10000*32 {
		t.Fatalf("launch ran all %d threads despite cancellation", n)
	}
	if k, _, _ := dev.Counters(); k != 0 {
		t.Fatal("aborted launch advanced the kernel counter")
	}
}

func TestTryLaunchHookFailure(t *testing.T) {
	dev := NewDevice("hook", 2)
	injected := errors.New("injected launch failure")
	dev.SetLaunchHook(func() error { return injected })
	ran := false
	_, err := dev.TryLaunch(Dim1(2), Dim1(2), func(Ctx) { ran = true })
	if !errors.Is(err, injected) {
		t.Fatalf("err = %v, want the hook's error", err)
	}
	if ran {
		t.Fatal("kernel ran despite a failed launch hook")
	}
	dev.SetLaunchHook(nil)
	if _, err := dev.TryLaunch(Dim1(2), Dim1(2), func(Ctx) {}); err != nil {
		t.Fatalf("launch after clearing hook: %v", err)
	}
}

func TestBlockHookRunsUnderContainment(t *testing.T) {
	dev := NewDevice("bhook", 2)
	dev.SetBlockHook(func(b int) {
		if b == 1 {
			panic("hook fault")
		}
	})
	defer dev.SetBlockHook(nil)
	_, err := dev.TryLaunch(Dim1(4), Dim1(2), func(Ctx) {})
	var wp *parallel.WorkerPanic
	if !errors.As(err, &wp) {
		t.Fatalf("err = %v, want *parallel.WorkerPanic from the hook", err)
	}
}

// Counters reports cumulative launch statistics for the device.
func (d *Device) Counters() (kernels, blocks, threads int64) {
	return d.kernelsLaunched.Load(), d.blocksLaunched.Load(), d.threadsLaunched.Load()
}
