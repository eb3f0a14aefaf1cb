package dist

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/hicoo"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/tensor"
)

// Format selects the local-compute representation each worker shards
// into.
type Format uint8

const (
	// FormatCOO computes local partials on raw COO shards.
	FormatCOO Format = iota
	// FormatHiCOO converts each shard to HiCOO (block-compressed, §3.2)
	// before computing — conversion happens once per shard and is reused
	// across sweeps.
	FormatHiCOO
)

func (f Format) String() string {
	if f == FormatHiCOO {
		return "HiCOO"
	}
	return "COO"
}

// Options configures an Engine; zero values select the defaults.
type Options struct {
	// Ranks is the simulated worker count (default 1).
	Ranks int
	// Format is the local shard representation (default FormatCOO).
	Format Format
	// BlockBits is the HiCOO block exponent (0 → hicoo.DefaultBlockBits).
	BlockBits uint8
	// Net is the alpha-beta model comm time is charged with (zero →
	// DefaultNetwork).
	Net NetworkModel
	// MaxReshards caps how many re-shard retries one distributed call may
	// spend before reporting resilience.ErrExhausted (0 → Ranks-1, i.e.
	// degrade all the way down to a single surviving worker).
	MaxReshards int
	// Inject, when non-nil, is consulted at the start of every worker's
	// local compute: a non-nil return fails that worker on that attempt.
	// The chaos tests drive persistent (every attempt) and transient
	// failures through it.
	Inject func(attempt, worker int) error
}

// Stats is an Engine's cumulative execution record.
type Stats struct {
	// Workers is the current live worker count (starts at Ranks, drops
	// by one per removed worker).
	Workers int
	// Attempts counts distributed executions, including retried ones.
	Attempts int64
	// RankFailures counts worker failures observed (abort broadcasts).
	RankFailures int64
	// Reshards counts re-shard retries taken after a failure.
	Reshards int64
	// CommBytes / CommMessages are the measured traffic of successful
	// attempts; ModeledCommSec the alpha-beta time charged for it.
	CommBytes      int64
	CommMessages   int64
	ModeledCommSec float64
}

// Engine owns one tensor sharded across simulated workers and executes
// distributed kernels over it with re-shard-and-retry fault tolerance:
// a worker failure aborts the in-flight collective (no peer is left
// blocked in the ring), the failed worker is removed, its non-zeros are
// re-partitioned across the survivors, and the call retries — so a
// persistent single-node fault degrades capacity instead of failing the
// job. Workers keep stable ids across re-shards (comm ranks renumber,
// worker ids do not), so persistent faults follow the node.
//
// An Engine is safe for concurrent use; distributed runs serialize on
// an internal lock (the parallelism is across the simulated workers
// inside a run, not across runs).
type Engine struct {
	x   *tensor.COO
	opt Options

	// runMu serializes distributed runs: shard caches and kernel plans
	// are single-writer per run.
	runMu sync.Mutex

	// mu guards the mutable state below (readable while a run holds
	// runMu: Stats() must not block for a whole CP-ALS sweep).
	mu       sync.Mutex
	workers  []int // live stable worker ids
	stats    Stats
	shards   map[int][]*shard // mode → per-live-worker shards
	ttvPlans map[int]*core.TtvPlan
}

// NewEngine builds an engine for x with opt.Ranks simulated workers.
func NewEngine(x *tensor.COO, opt Options) (*Engine, error) {
	if opt.Ranks <= 0 {
		opt.Ranks = 1
	}
	if opt.BlockBits < 1 || opt.BlockBits > hicoo.MaxBlockBits {
		opt.BlockBits = hicoo.DefaultBlockBits
	}
	if opt.Net == (NetworkModel{}) {
		opt.Net = DefaultNetwork
	}
	if opt.MaxReshards <= 0 {
		opt.MaxReshards = opt.Ranks - 1
	}
	if x == nil || x.Order() < 1 {
		return nil, fmt.Errorf("dist: engine needs a non-empty tensor")
	}
	e := &Engine{
		x:        x,
		opt:      opt,
		workers:  make([]int, opt.Ranks),
		shards:   make(map[int][]*shard),
		ttvPlans: make(map[int]*core.TtvPlan),
	}
	for i := range e.workers {
		e.workers[i] = i
	}
	e.stats.Workers = opt.Ranks
	return e, nil
}

// Stats snapshots the engine's cumulative execution record.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Workers returns the live worker count.
func (e *Engine) Workers() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.workers)
}

// liveWorkers snapshots the stable ids of the surviving workers.
func (e *Engine) liveWorkers() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]int(nil), e.workers...)
}

// removeWorker drops a failed worker and invalidates every shard cache
// (the partition width changed). Reports whether the id was live.
func (e *Engine) removeWorker(id int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, w := range e.workers {
		if w == id {
			e.workers = append(e.workers[:i], e.workers[i+1:]...)
			e.stats.Workers = len(e.workers)
			e.shards = make(map[int][]*shard)
			return true
		}
	}
	return false
}

// MttkrpResult carries a distributed Mttkrp's output and its measured
// communication, plus the alpha-beta modeled time.
type MttkrpResult struct {
	// Out is the reduced output matrix (identical on every rank).
	Out *tensor.Matrix
	// CommBytes and CommMessages are the measured allreduce traffic.
	CommBytes    int64
	CommMessages int64
	// ModeledCommSec is the alpha-beta time of the allreduce.
	ModeledCommSec float64
}

// TtvResult carries a distributed Ttv's gathered output.
type TtvResult struct {
	// Out is the complete output tensor (gathered at rank 0's shard
	// order, which equals the fiber order of the sorted input).
	Out *tensor.COO
	// CommBytes and CommMessages are the measured gather traffic —
	// recorded by the communicator itself, so they match GatherVolume.
	CommBytes    int64
	CommMessages int64
	// ModeledCommSec is the alpha-beta time of the gather.
	ModeledCommSec float64
}

// step is one kernel's side of a distributed attempt over p ranks: the
// part each rank computes and the collective that combines the parts.
// Everything else — communicator, cancellation, spans, panic
// containment, fault injection, the abort and the accounting — belongs
// to the rank loop.
type step struct {
	// local computes rank's part.
	local func(rank int) ([]tensor.Value, error)
	// combine is rank's side of the collective over its part.
	combine func(c *Comm, rank int, part []tensor.Value) error
	// modeled is the alpha-beta time the collective is charged.
	modeled float64
}

// traffic is one successful attempt's record: rank 0's part after the
// collective, and the communication it measured and was charged.
type traffic struct {
	root    []tensor.Value
	bytes   int64
	msgs    int64
	modeled float64
}

// runWithReshard drives one distributed call through the re-shard retry
// loop: each attempt asks prepare for the kernel's step over the live
// workers and runs it through rankLoop. Errors that carry a *RankError
// remove the failed worker and retry on the survivors (counted as a
// resilience retry); any other error is final. The retry budget
// exhausting — or the last worker dying — reports
// resilience.ErrExhausted with the root cause attached. A cancelled ctx
// is final immediately: nobody is waiting for the result, and the
// unwound collective must not be booked as a rank failure (the workers
// did nothing wrong).
func (e *Engine) runWithReshard(ctx context.Context, kernel string, mode int, prepare func(p int) (step, error)) (traffic, error) {
	e.runMu.Lock()
	defer e.runMu.Unlock()
	for attempt := 0; ; attempt++ {
		workers := e.liveWorkers()
		if len(workers) == 0 {
			return traffic{}, fmt.Errorf("dist: %s: no live workers: %w", kernel, resilience.ErrExhausted)
		}
		if ctx != nil && ctx.Err() != nil {
			return traffic{}, fmt.Errorf("dist: %s cancelled: %w", kernel, context.Cause(ctx))
		}
		e.mu.Lock()
		e.stats.Attempts++
		e.mu.Unlock()
		s, err := prepare(len(workers))
		if err != nil {
			return traffic{}, err
		}
		t, err := e.rankLoop(ctx, kernel, mode, workers, attempt, s)
		if err == nil {
			return t, nil
		}
		if ctx != nil && ctx.Err() != nil {
			return traffic{}, fmt.Errorf("dist: %s cancelled: %w", kernel, context.Cause(ctx))
		}
		var re *RankError
		if !errors.As(err, &re) {
			return traffic{}, err
		}
		e.mu.Lock()
		e.stats.RankFailures++
		e.mu.Unlock()
		ctrRankFailures.Inc()
		if !e.removeWorker(re.Rank) {
			// A failure attributed to an unknown worker cannot be
			// re-sharded around; treat it as final.
			return traffic{}, re
		}
		if attempt >= e.opt.MaxReshards || len(e.liveWorkers()) == 0 {
			return traffic{}, fmt.Errorf("dist: %s gave up after %d re-shard retries (last failure: %w): %w",
				kernel, attempt, re, resilience.ErrExhausted)
		}
		e.mu.Lock()
		e.stats.Reshards++
		e.mu.Unlock()
		ctrReshards.Inc()
		ctrRetries.Inc()
		obs.Emit("dist.reshard", kernel, obs.PhaseFallback, -1,
			obs.Attr{Key: "failed_worker", Val: strconv.Itoa(re.Rank)},
			obs.Attr{Key: "survivors", Val: strconv.Itoa(len(e.liveWorkers()))})
	}
}

// shardsFor returns the per-live-worker mode-wise shards, partitioning
// on first use (and after any re-shard, which clears the cache).
func (e *Engine) shardsFor(mode, p int) ([]*shard, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s, ok := e.shards[mode]; ok && len(s) == p {
		return s, nil
	}
	sp := obs.Begin("dist.partition", fmt.Sprintf("m%d/p%d", mode, p), obs.PhasePrepare, -1)
	coos, err := PartitionByMode(e.x, mode, p)
	sp.End()
	if err != nil {
		return nil, err
	}
	ss := make([]*shard, len(coos))
	for i, c := range coos {
		ss[i] = &shard{coo: c}
	}
	e.shards[mode] = ss
	return ss, nil
}

// rankLoop runs one attempt of s over the given workers — the one rank
// loop every distributed kernel shares. Each rank computes its part
// inside resilience.Run (Options.Inject consulted first), so a crashing
// or injected-faulty worker becomes a typed abort rather than a process
// unwind with peers mid-collective: the *RankError names the worker's
// stable id, and Abort unwinds every peer blocked in the collective.
// A successful attempt's traffic is folded into the engine's stats.
func (e *Engine) rankLoop(ctx context.Context, kernel string, mode int, workers []int, attempt int, s step) (traffic, error) {
	p := len(workers)
	c, err := NewComm(p)
	if err != nil {
		return traffic{}, err
	}
	stop := c.WatchContext(ctx)
	defer stop()
	site := fmt.Sprintf("%s/m%d", kernel, mode)
	var root []tensor.Value
	errs := make([]error, p)
	c.Run(func(rank int) {
		worker := workers[rank]
		sp := obs.Begin("dist.rank", site, obs.PhaseChunk, worker)
		sp.Attr("attempt", strconv.Itoa(attempt))
		defer sp.End()
		var part []tensor.Value
		label := resilience.Label{Kernel: kernel, Format: e.opt.Format.String(), Backend: "dist"}
		err := resilience.Run(label, func() error {
			if e.opt.Inject != nil {
				if err := e.opt.Inject(attempt, worker); err != nil {
					return err
				}
			}
			var err error
			part, err = s.local(rank)
			return err
		})
		if err != nil {
			re := &RankError{Rank: worker, Err: err}
			errs[rank] = re
			c.Abort(worker, re)
			return
		}
		if err := s.combine(c, rank, part); err != nil {
			errs[rank] = err
			return
		}
		if rank == 0 {
			root = part
		}
	})
	if err := distError(c, errs); err != nil {
		return traffic{}, err
	}
	t := traffic{root: root, modeled: s.modeled}
	t.bytes, t.msgs = c.Stats()
	e.mu.Lock()
	e.stats.CommBytes += t.bytes
	e.stats.CommMessages += t.msgs
	e.stats.ModeledCommSec += t.modeled
	e.mu.Unlock()
	return t, nil
}

// distError reduces an attempt's per-rank errors to the root cause: the
// aborting rank's *RankError when the communicator was aborted (peer
// ErrAborted unwinds are symptoms, not causes), otherwise the first
// per-rank error.
func distError(c *Comm, errs []error) error {
	if err := c.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Mttkrp runs the mode-n MTTKRP across the live workers: mode-wise
// shards computed locally (COO or HiCOO), partials combined by ring
// allreduce, worker failures re-sharded around. Cancelling ctx aborts
// the in-flight collective and returns the cancellation cause.
func (e *Engine) Mttkrp(ctx context.Context, mode int, mats []*tensor.Matrix, r int) (*MttkrpResult, error) {
	if mode < 0 || mode >= e.x.Order() {
		return nil, fmt.Errorf("dist: mode %d out of range", mode)
	}
	t, err := e.runWithReshard(ctx, "Mttkrp", mode, e.mttkrpStep(mode, mats, r))
	if err != nil {
		return nil, err
	}
	out := &tensor.Matrix{Rows: int(e.x.Dims[mode]), Cols: r, Data: t.root}
	return &MttkrpResult{Out: out, CommBytes: t.bytes, CommMessages: t.msgs, ModeledCommSec: t.modeled}, nil
}

// mttkrpStep is Mttkrp's side of an attempt over p ranks: each rank's
// partial over its mode slab, summed by the ring allreduce.
func (e *Engine) mttkrpStep(mode int, mats []*tensor.Matrix, r int) func(p int) (step, error) {
	return func(p int) (step, error) {
		shards, err := e.shardsFor(mode, p)
		if err != nil {
			return step{}, err
		}
		return step{
			local: func(rank int) ([]tensor.Value, error) {
				out, err := e.localMttkrp(shards[rank], mode, mats, r)
				if err != nil {
					return nil, err
				}
				return out.Data, nil
			},
			combine: func(c *Comm, rank int, part []tensor.Value) error { return c.AllReduceSum(rank, part) },
			modeled: e.opt.Net.AllReduceTime(tensor.ValueBytes*int64(e.x.Dims[mode])*int64(r), p),
		}, nil
	}
}

// localMttkrp computes one worker's partial over its shard. Empty
// shards short-circuit to a zero partial: the worker still joins the
// allreduce, it just brings nothing to it.
func (e *Engine) localMttkrp(s *shard, mode int, mats []*tensor.Matrix, r int) (*tensor.Matrix, error) {
	if s.coo.NNZ() == 0 {
		return tensor.NewMatrix(int(e.x.Dims[mode]), r), nil
	}
	if e.opt.Format == FormatHiCOO {
		if s.hx == nil {
			sp := obs.Begin("hicoo.FromCOO", "dist-shard", obs.PhaseConvert, -1)
			s.hx = hicoo.FromCOO(s.coo, e.opt.BlockBits)
			sp.End()
		}
		plan, err := core.PrepareMttkrpHiCOO(s.hx, mode, r)
		if err != nil {
			return nil, err
		}
		return plan.ExecuteSeq(mats)
	}
	plan, err := core.PrepareMttkrp(s.coo, mode, r)
	if err != nil {
		return nil, err
	}
	return plan.ExecuteSeq(mats)
}

// Ttv runs the mode-n tensor-times-vector across the live workers:
// contiguous fiber ranges computed locally, value segments gathered at
// the root through the communicator, worker failures re-sharded around.
// (Fiber outputs are disjoint regardless of format, so the local loop
// always runs on the sorted COO fiber structure.) Cancelling ctx aborts
// the in-flight collective and returns the cancellation cause.
func (e *Engine) Ttv(ctx context.Context, mode int, v tensor.Vector) (*TtvResult, error) {
	if mode < 0 || mode >= e.x.Order() {
		return nil, fmt.Errorf("dist: mode %d out of range", mode)
	}
	if len(v) != int(e.x.Dims[mode]) {
		return nil, fmt.Errorf("dist: vector length %d, want %d", len(v), e.x.Dims[mode])
	}
	var plan *core.TtvPlan
	t, err := e.runWithReshard(ctx, "Ttv", mode, func(p int) (step, error) {
		var err error
		if plan, err = e.ttvPlanFor(mode); err != nil {
			return step{}, err
		}
		mf := plan.NumFibers()
		segLens := make([]int, p)
		for rank := range segLens {
			segLens[rank] = (rank+1)*mf/p - rank*mf/p
		}
		return step{
			// The rank's segment is its fiber range of the plan's output,
			// reduced in place by the shared kernel body; the gather only
			// has to account for moving it to rank 0.
			local: func(rank int) ([]tensor.Value, error) {
				return plan.ExecuteFibers(rank*mf/p, (rank+1)*mf/p, v)
			},
			combine: func(c *Comm, rank int, seg []tensor.Value) error {
				_, err := c.Gather(rank, seg)
				return err
			},
			modeled: e.opt.Net.GatherTime(GatherVolume(segLens)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &TtvResult{Out: plan.Out, CommBytes: t.bytes, CommMessages: t.msgs, ModeledCommSec: t.modeled}, nil
}

func (e *Engine) ttvPlanFor(mode int) (*core.TtvPlan, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if plan, ok := e.ttvPlans[mode]; ok {
		return plan, nil
	}
	plan, err := core.PrepareTtv(e.x, mode)
	if err != nil {
		return nil, err
	}
	e.ttvPlans[mode] = plan
	return plan, nil
}

// CPALS runs the CP-ALS sweep with every per-mode MTTKRP executed
// distributed (mode-wise shards + ring allreduce over the factor
// update); the dense linear algebra between MTTKRPs is replicated, as
// in medium-scale distributed CP-ALS. Worker failures mid-sweep
// re-shard and retry the failing MTTKRP, so the decomposition survives
// node loss. Cancelling ctx stops the sweep at the next MTTKRP.
func (e *Engine) CPALS(ctx context.Context, rank, maxIters int, tol float64, seed int64) (*algo.CPResult, error) {
	return algo.CPALSWith(e.x, rank, maxIters, tol, seed,
		func(mode int, factors []*tensor.Matrix) (*tensor.Matrix, error) {
			res, err := e.Mttkrp(ctx, mode, factors, rank)
			if err != nil {
				return nil, err
			}
			return res.Out, nil
		})
}
