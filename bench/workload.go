package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/bench/ref"
	"repro/internal/dataset"
	"repro/internal/kernelreg"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// workload is one set of inputs. Each builds a main tensor and a service
// tensor (same recipe, NNZ/8 non-zeros, seed+1). The kernel cells, the
// streaming executor and the distributed engine run on the main tensor.
// The cells that cost a large part of a second per call on the main
// tensor run on the service tensor, so that a run still gives every cell
// the calls its quiet time needs: the input file, the conversions, CP-ALS, the daemon
// and the simulated devices.
type workload struct {
	Name   string
	Why    string // one line, repeated in BENCHMARK.json and the README
	Recipe string // dataset whose generator class and mode-size ratios the tensors take
	// NNZ is the main tensor's target non-zero count, frozen: changing
	// it changes every number.
	NNZ   int
	Input string // the form of the input file the load cell reads: "tns", "bten" or "tiled"
}

var workloads = []workload{
	{
		Name:   "skewed3d",
		Why:    "300k nnz, past L2, power-law fibers and a 51-row mode: memory traffic, long fibers, output collisions (per-layer run: scheduling, collision strategy) and text parse dominate",
		Recipe: "irrS", NNZ: 300_000, Input: "tns",
	},
	{
		Name:   "regular4d",
		Why:    "100k nnz, order-4 hypersparse Kronecker tensor: order-N kernel paths, the levels walker and conversions dominate; order-3 gains must not show",
		Recipe: "regS4d", NNZ: 100_000, Input: "bten",
	},
	{
		Name:   "small3d",
		Why:    "40k nnz, L2-resident uniform tensor: per-call fixed costs (launch, pools, HTTP/JSON, cache lookup) dominate, bandwidth does not",
		Recipe: "nell2", NNZ: 40_000, Input: "tiled",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// nThreads is the single parallelism setting of a run: GOMAXPROCS, the
// parallel runtime's worker count, the reference worker count and the
// daemon's client count. pinThreads sets it.
var nThreads = 1

func threads() int { return nThreads }

// tilesPerFile is how many tiles the tiled file is cut into, so the
// streaming cells see a real tile stream even on small tensors.
const tilesPerFile = 32

// setupTimes are the parts of one set-up pass the per-layer metrics
// report; total is setup_s.
type setupTimes struct {
	total       float64
	materialize float64
	buildAll    float64
	writeMBs    map[string]float64 // "tns", "bten", "tiled" -> MB/s
	coldMs      float64
}

// state is everything one set-up pass builds and a run measures.
type state struct {
	w    workload
	seed int64
	dir  string

	x, svc     *tensor.COO
	wb, svcWb  *kernelreg.Workbench
	files      map[string]string // "tns", "bten", "tiled" -> path of the main tensor's file
	input      string            // the service tensor's file in the workload's input form
	inputBytes int64
	tiles      *tensor.TileReader // over the main tensor's tiled file

	refs, svcRefs *refData // the frozen references' views of the main and the service tensor

	srv    *httptest.Server
	client *http.Client
	kinds  []requestKind
	hot    *hotStats

	cells []*cell // every cell once
	order []*cell // one round: the cells in visiting order
	// layers marks the per-layer (traced) run: it adds the cells that
	// feed per-layer metrics only and times CP-ALS's Mttkrp child.
	layers bool

	// What the cells leave behind for the report and the correctness
	// gate. Outputs are untyped so that "never produced" stays a plain
	// nil, which verifies as maximally deviant.
	prepCosts                 map[string]float64
	cpFit                     float64
	hicooBlocks               int
	oocMttkrpOut, oocTtvOut   any
	distMttkrpOut, distTtvOut any
}

func (s *state) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.tiles != nil {
		_ = s.tiles.Close() // read-only file
	}
	_ = os.Unsetenv(dataset.TensorDirEnv)
	_ = os.RemoveAll(s.dir) // scratch files; a leftover is harmless
}

// setUp is the timed set-up sequence (setup_s): generate both tensors,
// write the .tns/.bten/tiled files, build every instance, start the
// daemon, warm its caches, and calibrate the batch sizes. Files live
// under scratch and are read back through the page cache.
func setUp(w workload, seed int64, layers bool, scratch string) (*state, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	s := &state{w: w, seed: seed, layers: layers, files: map[string]string{}}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()

	entry, err := dataset.ByID(w.Recipe)
	if err != nil {
		return nil, st, err
	}
	// Generation must not see a tensor directory: it would load the
	// previous pass's service file instead of generating.
	if err := os.Unsetenv(dataset.TensorDirEnv); err != nil {
		return nil, st, err
	}
	t0 := time.Now()
	if s.x, err = dataset.Materialize(entry, w.NNZ, seed); err != nil {
		return nil, st, fmt.Errorf("materialize main tensor: %w", err)
	}
	if s.svc, err = dataset.Materialize(entry, w.NNZ/8, seed+1); err != nil {
		return nil, st, fmt.Errorf("materialize service tensor: %w", err)
	}
	st.materialize = time.Since(t0).Seconds()

	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, st, err
	}
	if s.dir, err = os.MkdirTemp(scratch, "tensors-"); err != nil {
		return nil, st, err
	}
	if st.writeMBs, err = s.writeFiles(entry.Name); err != nil {
		return nil, st, err
	}
	if s.tiles, err = tensor.OpenTiled(s.files["tiled"]); err != nil {
		return nil, st, fmt.Errorf("open tiled file: %w", err)
	}

	t0 = time.Now()
	s.wb = kernelreg.NewWorkbench(s.x, kernelreg.DefaultConfig())
	s.svcWb = kernelreg.NewWorkbench(s.svc, kernelreg.DefaultConfig())
	s.refs = newRefData(s.x, s.wb, threads())
	s.svcRefs = newRefData(s.svc, s.svcWb, threads())
	if err := s.buildCells(); err != nil {
		return nil, st, err
	}
	st.buildAll = time.Since(t0).Seconds()

	// The daemon under test only ever sees the generated service file.
	if err := os.Setenv(dataset.TensorDirEnv, s.dir); err != nil {
		return nil, st, err
	}
	if st.coldMs, err = s.startDaemon(entry.Name); err != nil {
		return nil, st, err
	}

	calibrateAll(s.cells)
	st.total = time.Since(start).Seconds()
	ok = true
	return s, st, nil
}

// writeFiles writes the main tensor in all three on-disk forms, the
// service tensor in the workload's input form, and the service tensor
// where the daemon looks for its dataset. It returns the write
// throughput per form, measured on the main tensor.
func (s *state) writeFiles(serviceName string) (map[string]float64, error) {
	// write stores t as <name>.tns, <name>.bten or <name>-tiled.bten.
	write := func(name, form string, t *tensor.COO) (path string, bytes int64, seconds float64, err error) {
		file := name + "." + form
		if form == "tiled" {
			file = name + "-tiled.bten"
		}
		path = filepath.Join(s.dir, file)
		t0 := time.Now()
		switch form {
		case "tns":
			err = tensor.WriteTNSFile(path, t)
		case "bten":
			err = tensor.WriteFile(path, t)
		default:
			err = tensor.WriteFileTiled(path, t, t.NNZ()/tilesPerFile+1)
		}
		seconds = time.Since(t0).Seconds()
		if err != nil {
			return "", 0, 0, fmt.Errorf("write %s: %w", file, err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			return "", 0, 0, err
		}
		return path, fi.Size(), seconds, nil
	}
	mbs := make(map[string]float64)
	for _, form := range []string{"tns", "bten", "tiled"} {
		path, bytes, seconds, err := write("main", form, s.x)
		if err != nil {
			return nil, err
		}
		s.files[form] = path
		mbs[form] = safeDiv(float64(bytes)/1e6, seconds)
	}
	var err error
	if s.input, s.inputBytes, _, err = write("service", s.w.Input, s.svc); err != nil {
		return nil, err
	}
	if _, _, _, err = write(serviceName, "bten", s.svc); err != nil {
		return nil, err
	}
	return mbs, nil
}

// refData is the frozen references' view of the main tensor: the same
// slices the program computes on, plus one fiber-sorted copy per mode
// (sorted by the reference's own sort) and preallocated outputs and
// per-worker buffers.
type refData struct {
	src    *tensor.COO          // the tensor the references compute on
	wb     *kernelreg.Workbench // its workbench: operands and ground truth
	x      *ref.COO
	y      []float32 // second Tew operand, the workbench's
	byMode []*ref.COO
	ptr    [][]int64
	vecs   [][]float32
	ttmU   [][]float32
	mats   [][]float32
	r      int

	ewOut   []float32
	ttvOut  [][]float32
	ttmOut  [][]float32
	mttOut  [][]float32
	priv    [][]float32 // per worker, sized for the largest mode
	scratch [][]float32 // per worker, r values
}

func asRef(t *tensor.COO) *ref.COO {
	return &ref.COO{Dims: t.Dims, Inds: t.Inds, Vals: t.Vals}
}

func newRefData(x *tensor.COO, wb *kernelreg.Workbench, workers int) *refData {
	order, r := x.Order(), wb.R()
	d := &refData{src: x, wb: wb, x: asRef(x), y: wb.Y().Vals, r: r, ewOut: make([]float32, x.NNZ())}
	maxDim := 0
	for n := 0; n < order; n++ {
		sorted := d.x.Clone()
		ref.Sort(sorted, ref.ModeLast(order, n))
		ptr := ref.FiberPtr(sorted, n)
		d.byMode = append(d.byMode, sorted)
		d.ptr = append(d.ptr, ptr)
		d.vecs = append(d.vecs, wb.Vec(n))
		d.ttmU = append(d.ttmU, wb.TtmMat(n).Data)
		d.mats = append(d.mats, wb.Mats()[n].Data)
		d.ttvOut = append(d.ttvOut, make([]float32, len(ptr)-1))
		d.ttmOut = append(d.ttmOut, make([]float32, (len(ptr)-1)*r))
		d.mttOut = append(d.mttOut, make([]float32, int(x.Dims[n])*r))
		if int(x.Dims[n]) > maxDim {
			maxDim = int(x.Dims[n])
		}
	}
	for w := 0; w < workers; w++ {
		d.priv = append(d.priv, make([]float32, maxDim*r))
		d.scratch = append(d.scratch, make([]float32, r))
	}
	return d
}

// The reference kernels on `workers` goroutines (static schedule: equal
// non-zeros per goroutine; Mttkrp by privatization). One worker is the
// plain serial loop.

func (d *refData) tew(workers int) {
	ref.Static(len(d.ewOut), workers, func(_, lo, hi int) { ref.Tew(d.ewOut[lo:hi], d.x.Vals[lo:hi], d.y[lo:hi]) })
}

func (d *refData) ts(workers int) {
	ref.Static(len(d.ewOut), workers, func(_, lo, hi int) { ref.Ts(d.ewOut[lo:hi], d.x.Vals[lo:hi], tsScalar) })
}

func (d *refData) ttv(n, workers int) {
	ref.StaticAt(ref.FiberCuts(d.ptr[n], workers), func(_, lo, hi int) {
		ref.Ttv(d.ttvOut[n], d.byMode[n], d.ptr[n], n, d.vecs[n], lo, hi)
	})
}

func (d *refData) ttm(n, workers int) {
	ref.StaticAt(ref.FiberCuts(d.ptr[n], workers), func(_, lo, hi int) {
		ref.Ttm(d.ttmOut[n], d.byMode[n], d.ptr[n], n, d.ttmU[n], d.r, lo, hi)
	})
}

func (d *refData) mttkrp(n, workers int) {
	out := d.mttOut[n]
	if workers <= 1 {
		for i := range out {
			out[i] = 0
		}
		ref.Mttkrp(out, d.x, n, d.mats, d.r, d.scratch[0], 0, d.x.NNZ())
		return
	}
	priv := make([][]float32, workers)
	for w := range priv {
		priv[w] = d.priv[w][:len(out)]
	}
	ref.MttkrpPrivatized(out, priv, d.scratch, d.x, n, d.mats, d.r)
}

// pinThreads applies the run's one parallelism setting. The end-to-end
// run is single-threaded: this host's vCPUs share less than two cores
// (two goroutines doing twice the work take twice the time), so anything
// wider times the hypervisor's scheduler, and the bounded metrics must
// repeat. The per-layer run uses min(nproc, 4) threads, so that the
// parallel runtime's strategies, counters and speedups are exercised
// where no bound depends on their timing.
func pinThreads(layers bool) int {
	nThreads = 1
	if layers {
		if nThreads = runtime.NumCPU(); nThreads > 4 {
			nThreads = 4
		}
	}
	runtime.GOMAXPROCS(nThreads)
	parallel.SetNumThreads(nThreads)
	return nThreads
}
