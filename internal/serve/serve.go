// Package serve implements pastad, the benchmark-as-a-service daemon:
// an HTTP/JSON front door over the kernel-variant registry that accepts
// kernel-execution requests from many concurrent clients.
//
// The daemon composes the suite's existing subsystems rather than
// re-implementing them:
//
//   - a sharded LRU cache holds materialized dataset tensors (one
//     goroutine-safe kernelreg.Workbench per dataset) and prepared
//     kernelreg.Instance objects keyed by (dataset, variant, mode),
//     with singleflight fills so a thundering herd builds each once;
//   - identical concurrent requests batch onto one in-flight execution
//     of the shared prepared Instance (an Instance is single-writer);
//   - every execution walks the resilience degradation ladder (native
//     backend → verified serial fallback) under one daemon-wide Runner,
//     whose per-backend circuit breakers are surfaced in responses;
//   - admission control caps concurrent executions and per-client
//     quotas are accounted in the internal/obs counter registry, which
//     /metrics exports in Prometheus text format next to the runtime
//     counters of every other subsystem.
//
// POST /run is one staged pipeline — decode → gate → resolve → cost →
// admit → slot → execute → encode (handleRun, Run) — whichever of the
// three executors the request resolves onto: a prepared instance, the
// distributed engine, or the out-of-core tile stream.
//
// Failures map onto HTTP statuses in one place, encode, through the
// resilience error taxonomy: unregistered variants are 404, open
// breakers 503, trial deadlines 504, non-finite outputs 422, contained
// panics 500, exhausted ladders 502, quota exhaustion 429.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/govern"
	"repro/internal/kernelreg"
	"repro/internal/obs"
	"repro/internal/ooc"
	"repro/internal/resilience"
	"repro/internal/roofline"
)

var (
	ctrRequests    = obs.GetCounter("daemon.requests")
	ctrErrors      = obs.GetCounter("daemon.errors")
	ctrBatchRuns   = obs.GetCounter("daemon.batch.runs")
	ctrBatchJoined = obs.GetCounter("daemon.batch.joined")
	ctrLatencyUsec = obs.GetCounter("daemon.request_usec")
	// ctrCancelled counts requests abandoned by their client (disconnect
	// or per-request deadline) whose work was stopped and quota refunded.
	ctrCancelled = obs.GetCounter("govern.cancelled")
)

// statusClientClosedRequest is the nginx-convention status for a
// request whose client hung up before the response was ready.
const statusClientClosedRequest = 499

// deadlineHeader is the per-request deadline a client may set (a Go
// duration string, e.g. "250ms"); the trial is cancelled when it
// expires, independent of the daemon-wide Config.Timeout.
const deadlineHeader = "X-Pasta-Deadline"

// Config carries the daemon's tunables; zero values select the
// documented defaults.
type Config struct {
	// NNZ is the stand-in non-zero count datasets materialize with
	// (default 5000; real tensors from PASTA_TENSOR_DIR always win).
	NNZ int
	// Seed is the dataset generation seed (default 42).
	Seed int64
	// Bench carries the kernel parameters (R, block bits, segment size,
	// schedule); zero fields normalize to the paper defaults.
	Bench kernelreg.Config
	// CacheShards is the LRU shard count (default 8).
	CacheShards int
	// ShardCap is the LRU capacity per shard (default 32 entries).
	ShardCap int
	// MaxInflight caps concurrently executing requests; excess requests
	// are rejected 503 rather than queued (default 2×GOMAXPROCS).
	MaxInflight int
	// QuotaLimit is the per-client admitted-request budget per
	// QuotaWindow; 0 disables quotas.
	QuotaLimit int64
	// QuotaWindow is the quota accounting window; 0 makes QuotaLimit a
	// lifetime budget.
	QuotaWindow time.Duration
	// Timeout bounds one trial (all rungs and retries; default 30s).
	Timeout time.Duration
	// Runner executes trials; tests inject one to observe breakers.
	// Defaults to a fresh resilience.Runner.
	Runner *resilience.Runner
	// MemBudget is the daemon-wide working-set budget requests are
	// admitted against (bytes; 0 → govern.DefaultBudget, half of the
	// memory limit or system RAM).
	MemBudget int64
	// AdmitWait is how long an over-capacity request may wait at the
	// admission gate before it is shed 503 (default 100ms).
	AdmitWait time.Duration
	// DrainGrace bounds a graceful drain: how long BeginDrain waits for
	// in-flight leases before giving up (default 10s); also the
	// Retry-After hint rejected joiners get while draining.
	DrainGrace time.Duration
}

// Server is the daemon state shared by all requests.
type Server struct {
	cfg      Config
	cache    *cache
	quotas   *quotas
	runner   *resilience.Runner
	gov      *govern.Governor
	inflight chan struct{}
	start    time.Time
	mux      *http.ServeMux
}

// New builds a Server, normalizing zero Config fields.
func New(cfg Config) *Server {
	if cfg.NNZ <= 0 {
		cfg.NNZ = 5000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if cfg.CacheShards <= 0 {
		cfg.CacheShards = 8
	}
	if cfg.ShardCap <= 0 {
		cfg.ShardCap = 32
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Bench.R < 1 {
		cfg.Bench.R = kernelreg.DefaultConfig().R
	}
	s := &Server{
		cfg:    cfg,
		cache:  newCache(cfg.CacheShards, cfg.ShardCap),
		quotas: newQuotas(cfg.QuotaLimit, cfg.QuotaWindow),
		runner: cfg.Runner,
		gov: govern.New(govern.Config{
			BudgetBytes: cfg.MemBudget,
			AdmitWait:   cfg.AdmitWait,
			DrainGrace:  cfg.DrainGrace,
		}),
		inflight: make(chan struct{}, cfg.MaxInflight),
		start:    time.Now(),
		mux:      http.NewServeMux(),
	}
	if s.runner == nil {
		s.runner = &resilience.Runner{}
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/variants", s.handleVariants)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/run", s.handleRun)
	return s
}

// Handler returns the daemon's HTTP handler (httptest mounts it
// directly; pastad serves it via StartHTTP).
func (s *Server) Handler() http.Handler { return s.mux }

// RunRequest is the POST /run body.
type RunRequest struct {
	// Dataset is a Table 2/3 tensor by ID or name ("r2", "nell2", ...).
	Dataset string `json:"dataset"`
	// Kernel is one of Tew, Ts, Ttv, Ttm, Mttkrp (case-insensitive).
	Kernel string `json:"kernel"`
	// Format is one of COO, HiCOO, CSF, fCOO (case-insensitive).
	Format string `json:"format"`
	// Backend is omp, gpu, multigpu, or ooc (out-of-core streaming);
	// empty picks the host variant the measurement harness would (OMP
	// first, then simulated GPU).
	Backend string `json:"backend"`
	// Mode is the tensor mode for mode-dependent kernels (Ttv, Ttm,
	// Mttkrp); ignored for Tew/Ts.
	Mode int `json:"mode"`
	// Verify adds the worst relative deviation from the serial-COO
	// reference to the response (computed once per variant, cached).
	Verify bool `json:"verify"`
	// Fallback controls the serial rung of the degradation ladder;
	// omitted means true. Setting false turns a native-backend failure
	// into a typed error response instead of a degraded result.
	Fallback *bool `json:"fallback"`
	// Ranks > 0 routes the request through the distributed execution
	// layer: the tensor is sharded mode-wise across that many simulated
	// workers (Mttkrp: ring allreduce over partials; Ttv: rooted
	// gather), and the response reports measured + alpha-beta-modeled
	// communication in "dist". Supported for Mttkrp and Ttv on COO and
	// HiCOO.
	Ranks int `json:"ranks"`
}

// RunResponse is the POST /run success body.
type RunResponse struct {
	Dataset string `json:"dataset"`
	Variant string `json:"variant"`
	Mode    int    `json:"mode"`
	// Outcome is the resilience report: "ok", "recovered",
	// "fell-back:serial", ...
	Outcome  string `json:"outcome"`
	Backend  string `json:"backend"`
	FellFrom string `json:"fellFrom,omitempty"`
	Attempts int    `json:"attempts"`
	Strategy string `json:"strategy,omitempty"`
	// Flops is the Table 1 work of one execution; GFLOPS divides it by
	// the measured wall time.
	Flops      int64   `json:"flops"`
	ElapsedSec float64 `json:"elapsedSec"`
	GFLOPS     float64 `json:"gflops"`
	// CacheHit reports whether the prepared Instance already existed;
	// WorkbenchHit whether the dataset tensor did.
	CacheHit     bool `json:"cacheHit"`
	WorkbenchHit bool `json:"workbenchHit"`
	// Batched reports the request was coalesced onto another identical
	// in-flight execution and shares its result.
	Batched bool `json:"batched"`
	// Deviation is the worst relative deviation vs the serial-COO
	// reference (present when the request asked to verify).
	Deviation *float64 `json:"deviation,omitempty"`
	// BreakersOpen lists backends whose circuit breaker is currently
	// open on this daemon.
	BreakersOpen []string `json:"breakersOpen,omitempty"`
	// Dist reports the distributed execution when the request asked for
	// ranks > 0.
	Dist *DistInfo `json:"dist,omitempty"`
	// OOC reports the streaming pipeline when the request ran out of
	// core (an over-budget request rerouted to the tile stream).
	OOC *OOCInfo `json:"ooc,omitempty"`
}

// OOCInfo is the out-of-core section of a RunResponse: what the
// bounded-memory tile stream did instead of an in-core execution.
type OOCInfo struct {
	// Budget is the tile-residency byte budget the stream ran under;
	// PeakBytes the leased high-water mark (always <= Budget).
	Budget    int64 `json:"budget"`
	PeakBytes int64 `json:"peakBytes"`
	// Tiles/BytesRead are the tile stream volume; Evictions the leases
	// released after compute.
	Tiles     int64 `json:"tiles"`
	BytesRead int64 `json:"bytesRead"`
	Evictions int64 `json:"evictions"`
	// PrefetchHits/PrefetchStalls report how well the double-buffered
	// read pipeline overlapped with compute.
	PrefetchHits   int64 `json:"prefetchHits"`
	PrefetchStalls int64 `json:"prefetchStalls"`
	// FileBytes is the size of the spooled v3 tile file the stream read.
	FileBytes int64 `json:"fileBytes"`
}

// DistInfo is the distributed-path section of a RunResponse: the
// measured communicator traffic of this call plus the alpha-beta model
// of it, and the engine's fault-tolerance state.
type DistInfo struct {
	// Ranks is the requested worker count; LiveWorkers how many survive
	// after any re-shards (engines are cached per dataset/format/ranks,
	// so earlier failures persist).
	Ranks       int `json:"ranks"`
	LiveWorkers int `json:"liveWorkers"`
	// CommBytes/CommMessages are the traffic the communicator measured
	// for this call; ModeledCommSec is the alpha-beta time for it.
	CommBytes      int64   `json:"commBytes"`
	CommMessages   int64   `json:"commMessages"`
	ModeledCommSec float64 `json:"modeledCommSec"`
	// Reshards counts re-shard retries this call spent on worker
	// failures.
	Reshards int64 `json:"reshards"`
}

// ErrorBody is the typed error payload of every non-2xx response.
type ErrorBody struct {
	// Type names the failure class: panic, deadline, non-finite,
	// breaker-open, exhausted, unsupported, not-found, bad-request,
	// quota, overload, method.
	Type    string `json:"type"`
	Message string `json:"message"`
	Kernel  string `json:"kernel,omitempty"`
	Format  string `json:"format,omitempty"`
	Backend string `json:"backend,omitempty"`
}

type errorResponse struct {
	Error ErrorBody `json:"error"`
}

// statusOf maps an execution error onto (HTTP status, taxonomy type)
// via the resilience sentinels. Specific classes are checked before
// ErrExhausted so an exhausted ladder reports its root cause.
func statusOf(err error) (int, string) {
	switch {
	// Cancellation first: a cancelled cooperative kernel surfaces as
	// ErrDeadline wrapping a Canceled cause, and the client-walked-away
	// classification must win over the deadline one.
	case resilience.IsCancelled(err):
		return statusClientClosedRequest, "cancelled"
	case errors.Is(err, resilience.ErrUnsupported):
		return http.StatusNotFound, "unsupported"
	case errors.Is(err, resilience.ErrBreakerOpen):
		return http.StatusServiceUnavailable, "breaker-open"
	case errors.Is(err, resilience.ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, resilience.ErrNonFinite):
		return http.StatusUnprocessableEntity, "non-finite"
	case errors.Is(err, resilience.ErrPanic):
		return http.StatusInternalServerError, "panic"
	case errors.Is(err, resilience.ErrExhausted):
		return http.StatusBadGateway, "exhausted"
	}
	return http.StatusInternalServerError, "internal"
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the client hung up; nothing to do
}

func writeError(w http.ResponseWriter, status int, body ErrorBody) {
	ctrErrors.Inc()
	writeJSON(w, status, errorResponse{Error: body})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.gov.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    status,
		"uptimeSec": time.Since(s.start).Seconds(),
		"variants":  len(kernelreg.All()),
		"cached":    s.cache.len(),
	})
}

// variantInfo is one /variants row.
type variantInfo struct {
	Kernel        string `json:"kernel"`
	Format        string `json:"format"`
	Backend       string `json:"backend"`
	ModeDependent bool   `json:"modeDependent"`
	NeedsFactors  bool   `json:"needsFactors"`
	SerialRef     bool   `json:"serialRef"`
	// Generated marks a variant instantiated by the generic
	// level-iterator kernels from the format's declaration.
	Generated bool `json:"generated"`
	// Levels is the format's declared level signature (empty for
	// formats without a level view).
	Levels string `json:"levels,omitempty"`
}

func (s *Server) handleVariants(w http.ResponseWriter, r *http.Request) {
	all := kernelreg.All()
	out := make([]variantInfo, 0, len(all))
	for _, v := range all {
		out = append(out, variantInfo{
			Kernel:        v.Kernel.String(),
			Format:        v.Format.String(),
			Backend:       v.Backend.String(),
			ModeDependent: v.Caps.ModeDependent,
			NeedsFactors:  v.Caps.NeedsFactors,
			SerialRef:     v.Caps.SerialRef,
			Generated:     v.Generated,
			Levels:        v.Levels,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleRun is POST /run, and reads as the stage list (DESIGN.md §19):
// decode → gate → Run (resolve → cost → admit → slot → execute) →
// encode. A stage that fails returns a typed error and the rest are
// skipped; encode renders whichever error came first.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, ErrorBody{Type: "method", Message: "POST /run"})
		return
	}
	ctrRequests.Inc()
	start := time.Now()
	defer func() { ctrLatencyUsec.Add(time.Since(start).Microseconds()) }()

	client := clientID(r)
	req, ctx, cancel, err := decode(w, r)
	defer cancel()
	if err == nil {
		err = s.gate(client)
	}
	var resp *RunResponse
	if err == nil {
		resp, err = s.Run(ctx, req)
	}
	s.encode(w, r, client, resp, err)
}

// Run is the transport-independent middle of POST /run: one request
// through resolve → cost → admit → slot → execute. ctx carries the
// caller's cancellation (client disconnect, per-request deadline) all
// the way into the kernel; nil means no cancellation.
func (s *Server) Run(ctx context.Context, req RunRequest) (*RunResponse, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p, err := s.resolve(req)
	if err != nil {
		return nil, err
	}
	lease, err := s.admit(ctx, p)
	if err != nil {
		return nil, err
	}
	defer lease.Release()
	release, err := s.slot()
	if err != nil {
		return nil, err
	}
	defer release()
	return s.execute(ctx, p)
}

// badRequestError carries a pre-rendered request-level failure (parse
// or lookup, not execution).
type badRequestError struct {
	status int
	body   ErrorBody
}

func (e *badRequestError) Error() string { return e.body.Message }

// badRequest is the 400 a request that fails validation is answered.
func badRequest(format string, a ...any) *badRequestError {
	return &badRequestError{http.StatusBadRequest, ErrorBody{Type: "bad-request", Message: fmt.Sprintf(format, a...)}}
}

// quotaError is the gate's rejection of a client over its quota.
// retryAfter is how long until the client's window rolls over and
// capacity returns (zero for a lifetime budget, which never recovers).
type quotaError struct{ retryAfter time.Duration }

func (*quotaError) Error() string { return "client quota exhausted" }

// errOverload is the slot stage's rejection: every in-flight slot is
// taken, and excess load is turned away rather than queued into memory.
var errOverload = errors.New("daemon at max in-flight requests")

// decode is the first stage: the JSON body (unknown fields rejected,
// 1 MiB cap) and the request's context — the client's disconnect,
// tightened by an optional X-Pasta-Deadline header. It runs before any
// admission decision, so a malformed request costs nothing. The
// returned cancel is never nil.
func decode(w http.ResponseWriter, r *http.Request) (req RunRequest, ctx context.Context, cancel context.CancelFunc, err error) {
	ctx, cancel = r.Context(), func() {}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, ctx, cancel, badRequest("%s", err)
	}
	if h := strings.TrimSpace(r.Header.Get(deadlineHeader)); h != "" {
		d, err := time.ParseDuration(h)
		if err != nil || d <= 0 {
			return req, ctx, cancel, badRequest("invalid %s %q: want a positive Go duration", deadlineHeader, h)
		}
		ctx, cancel = context.WithTimeout(ctx, d)
	}
	return req, ctx, cancel, nil
}

// gate turns a request away before it is looked at: while the daemon
// drains, and when the client is over its quota. A request that passes
// has been charged to the client's window.
func (s *Server) gate(client string) error {
	if s.gov.Draining() {
		return govern.ErrDraining
	}
	if ok, retry := s.quotas.admit(client); !ok {
		return &quotaError{retry}
	}
	return nil
}

// plan is one request after resolve: parsed and validated exactly
// once, and bound to the executor it runs on.
type plan struct {
	entry  dataset.Entry
	kernel roofline.Kernel
	format roofline.Format
	// mode is 0 for kernels that compute no per-mode quantity; execute
	// range-checks it once the loaded tensor's order is known.
	mode int
	opts runOpts
	exec executor
	// streamable marks an in-core plan whose kernel can also run on the
	// tile stream, so admit may re-resolve it there instead of 413ing.
	streamable bool
}

// executor is where a plan runs; exactly one field is set. Each
// executor serves one request and has the same three methods:
//
//   - cost predicts the working-set bytes admitting the plan adds to
//     the daemon, before anything is materialized. Components already
//     resident are peeked in the cache and skipped, so a warm request
//     is charged only its per-execution transient.
//   - load is the dataset stage: it fetches (building on first use)
//     what the kernel reads and reports the tensor's order.
//   - run executes the kernel once and assembles the response.
//
// A closed sum rather than an interface: an interface value whose
// methods mention *Server marks every type reachable from Server as
// interface-reachable for the linker, which then keeps otherwise dead
// exported methods in packages linked ahead of internal/core (one, in
// internal/obs, sufficed) — and a 32-byte shift of the kernels' text
// moves the benchmark's kernel ratios by up to 10 % (verify skill).
type executor struct {
	inst   *instExec   // a prepared registry instance
	dist   *distExec   // the sharded distributed engine
	stream *streamExec // the out-of-core tile stream
}

func (e *executor) cost(s *Server, p *plan) int64 {
	switch {
	case e.dist != nil:
		return e.dist.cost(s, p)
	case e.stream != nil:
		return e.stream.cost(s, p)
	}
	return e.inst.cost(s, p)
}

func (e *executor) load(ctx context.Context, s *Server, p *plan) (order int, err error) {
	switch {
	case e.dist != nil:
		return e.dist.load(ctx, s, p)
	case e.stream != nil:
		return e.stream.load(ctx, s, p)
	}
	return e.inst.load(ctx, s, p)
}

func (e *executor) run(ctx context.Context, s *Server, p *plan) (*RunResponse, error) {
	switch {
	case e.dist != nil:
		return e.dist.run(ctx, s, p)
	case e.stream != nil:
		return e.stream.run(ctx, s, p)
	}
	return e.inst.run(ctx, s, p)
}

// resolve parses and validates the request into a plan. Every
// request-level failure (unknown name, unregistered cell, bad ranks)
// surfaces here, before the request is priced or admitted; only the
// mode range waits for the dataset (execute).
func (s *Server) resolve(req RunRequest) (*plan, error) {
	k, f, b, err := parseVariant(req)
	if err != nil {
		return nil, err
	}
	e, err := dataset.ByID(strings.TrimSpace(req.Dataset))
	if err != nil {
		return nil, &badRequestError{http.StatusNotFound, ErrorBody{
			Type: "not-found", Message: err.Error()}}
	}
	p := &plan{entry: e, kernel: k, format: f, mode: req.Mode,
		opts: runOpts{verify: req.Verify, fallback: req.Fallback == nil || *req.Fallback}}
	if req.Ranks != 0 {
		if p.exec.dist, err = resolveDist(p, req.Ranks); err != nil {
			return nil, err
		}
		return p, nil
	}
	var v *kernelreg.Variant
	if strings.TrimSpace(req.Backend) == "" {
		v, err = kernelreg.HostVariant(k, f)
	} else {
		v, err = kernelreg.Lookup(k, f, b)
	}
	if err != nil {
		return nil, err
	}
	if !v.Caps.ModeDependent {
		p.mode = 0
	}
	p.exec.inst = &instExec{v: v}
	// Streamable: a reduction kernel over the COO tile layout, and a
	// backend choice the reroute honors (unset, the host default, or
	// ooc itself — an explicit gpu/multigpu ask is not silently moved).
	p.streamable = f == roofline.COO && (k == roofline.Ttv || k == roofline.Mttkrp) &&
		(b == kernelreg.OMP || b == kernelreg.OOC)
	return p, nil
}

// parseVariant resolves the request's kernel/format/backend strings.
func parseVariant(req RunRequest) (roofline.Kernel, roofline.Format, kernelreg.Backend, error) {
	var (
		k     roofline.Kernel
		f     roofline.Format
		b     kernelreg.Backend
		found bool
	)
	for _, kk := range roofline.Kernels {
		if strings.EqualFold(kk.String(), req.Kernel) {
			k, found = kk, true
			break
		}
	}
	if !found {
		return 0, 0, 0, badRequest("unknown kernel %q", req.Kernel)
	}
	found = false
	for _, ff := range roofline.Formats {
		if strings.EqualFold(ff.String(), req.Format) {
			f, found = ff, true
			break
		}
	}
	if !found {
		return 0, 0, 0, badRequest("unknown format %q", req.Format)
	}
	name := strings.ToLower(strings.TrimSpace(req.Backend))
	if name == "" {
		name = kernelreg.OMP.String()
	}
	found = false
	for _, bb := range kernelreg.Backends {
		if bb.String() == name {
			b, found = bb, true
			break
		}
	}
	if !found {
		return 0, 0, 0, badRequest("unknown backend %q", req.Backend)
	}
	return k, f, b, nil
}

// admit prices the plan on its executor and takes a lease on the
// daemon's memory budget. A plan too large to ever run in core may
// still be streamable — the tile stream holds only a budgeted window
// plus dense operands — so it is re-resolved onto the stream executor
// and goes back through this same stage at that (much smaller) cost.
func (s *Server) admit(ctx context.Context, p *plan) (*govern.Lease, error) {
	lease, err := s.gov.Admit(ctx, p.exec.cost(s, p))
	if errors.Is(err, govern.ErrOverBudget) && p.streamable {
		p.streamable = false
		p.exec = executor{stream: s.newStreamExec(p)}
		return s.admit(ctx, p)
	}
	return lease, err
}

// slot takes one of the MaxInflight execution slots, or rejects.
func (s *Server) slot() (release func(), err error) {
	select {
	case s.inflight <- struct{}{}:
		return func() { <-s.inflight }, nil
	default:
		ctrOverloadRejects.Inc()
		return nil, errOverload
	}
}

// execute loads the plan's dataset, checks the mode against it, and
// runs the plan on its executor.
func (s *Server) execute(ctx context.Context, p *plan) (*RunResponse, error) {
	order, err := p.exec.load(ctx, s, p)
	if err != nil {
		return nil, err
	}
	if p.mode < 0 || p.mode >= order {
		return nil, badRequest("mode %d out of range for order-%d tensor %s", p.mode, order, p.entry.Name)
	}
	resp, err := p.exec.run(ctx, s, p)
	if err != nil {
		return nil, err
	}
	resp.Dataset, resp.Mode = p.entry.Name, p.mode
	return resp, nil
}

// timed runs one kernel execution under Config.Timeout — the one place
// the per-trial deadline is applied, whichever executor runs — and
// returns its wall time in seconds.
func (s *Server) timed(ctx context.Context, kernel func(context.Context) error) (float64, error) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.Timeout)
	defer cancel()
	start := time.Now()
	err := kernel(ctx)
	return time.Since(start).Seconds(), err
}

// finish completes a response the way every executor reports it: the
// measured time, the rate it implies and, when the request asked to
// verify, the worst relative deviation of out from the workbench's
// serial-COO reference (a NaN or Inf, +Inf to Compare, is 422
// non-finite). The tile stream passes no workbench: it runs
// because the in-memory tensor a reference needs does not fit.
func (p *plan) finish(ctx context.Context, resp *RunResponse, elapsed float64,
	wb *kernelreg.Workbench, out func() kernelreg.Canon) (*RunResponse, error) {
	resp.ElapsedSec = elapsed
	if elapsed > 0 {
		resp.GFLOPS = float64(resp.Flops) / elapsed / 1e9
	}
	if p.opts.verify && wb != nil {
		ref, err := wb.Reference(ctx, p.kernel, p.mode)
		if err != nil {
			return nil, err
		}
		dev := kernelreg.Compare(out(), ref)
		if math.IsInf(dev, 1) {
			return nil, fmt.Errorf("serve: verify: output or reference holds a NaN or an infinity: %w", resilience.ErrNonFinite)
		}
		resp.Deviation = &dev
	}
	return resp, nil
}

// encode is the last stage, and the one place a failure becomes a
// status, a Retry-After hint and a quota effect.
func (s *Server) encode(w http.ResponseWriter, r *http.Request, client string, resp *RunResponse, err error) {
	if err == nil {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	retryAfter := func(d time.Duration) { w.Header().Set("Retry-After", retryAfterSeconds(d)) }
	var (
		br *badRequestError
		qe *quotaError
	)
	switch {
	case errors.As(err, &br):
		writeError(w, br.status, br.body)
	case errors.As(err, &qe):
		// The quota recovers when the client's window rolls over, not in
		// a fixed second (a lifetime budget never recovers; 1s is the
		// floor the header grammar allows us to express either way).
		retryAfter(qe.retryAfter)
		writeError(w, http.StatusTooManyRequests, ErrorBody{Type: "quota", Message: err.Error()})
	case r.Context().Err() != nil || resilience.IsCancelled(err):
		// The client walked away — at the admission gate or anywhere down
		// the stack. The 499 (nginx's client-closed-request) is written
		// for the log's benefit, and the quota charge is refunded:
		// abandoned work must not count. A deadline is not a disconnect:
		// it falls through to 504 and stays charged.
		ctrCancelled.Inc()
		s.quotas.refund(client)
		obs.Emit("govern.cancelled", client, obs.PhaseTrial, -1)
		writeError(w, statusClientClosedRequest, ErrorBody{
			Type: "cancelled", Message: "request cancelled by client"})
	case errors.Is(err, govern.ErrDraining):
		// At the gate, at admission, or a joiner detached from a shared
		// flight because the daemon started draining mid-wait.
		retryAfter(s.gov.DrainGrace())
		writeError(w, http.StatusServiceUnavailable, ErrorBody{
			Type: "draining", Message: "daemon is draining; not admitting new work"})
	case errors.Is(err, govern.ErrOverBudget), errors.Is(err, ooc.ErrBudgetTooSmall):
		// No Retry-After: a request larger than the whole budget can
		// never be admitted, so there is no useful time to suggest.
		writeError(w, http.StatusRequestEntityTooLarge, ErrorBody{Type: "over-budget", Message: err.Error()})
	case errors.Is(err, govern.ErrOverloaded):
		retryAfter(s.overloadRetryAfter())
		writeError(w, http.StatusServiceUnavailable, ErrorBody{Type: "shed", Message: err.Error()})
	case errors.Is(err, errOverload):
		// A slot frees after roughly one mean request duration; the hint
		// is derived from the measured state, not a hardcoded constant.
		retryAfter(s.overloadRetryAfter())
		writeError(w, http.StatusServiceUnavailable, ErrorBody{Type: "overload", Message: err.Error()})
	default:
		// The resilience taxonomy, with the trial label when one is
		// attached.
		status, typ := statusOf(err)
		body := ErrorBody{Type: typ, Message: err.Error()}
		var ke *resilience.KernelError
		if errors.As(err, &ke) {
			body.Kernel, body.Format, body.Backend = ke.Label.Kernel, ke.Label.Format, ke.Label.Backend
		}
		writeError(w, status, body)
	}
}

// retryAfterSeconds renders a duration as a Retry-After header value:
// integer seconds, rounded up, floored at 1 (the smallest useful hint
// the delta-seconds grammar can express), capped at an hour so a
// misconfigured window cannot tell clients to go away for a day.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 3600 {
		secs = 3600
	}
	return strconv.FormatInt(secs, 10)
}

// overloadRetryAfter estimates when an in-flight slot frees: the mean
// request latency measured so far (total request-microseconds over
// total requests). With no history it falls back to zero, which
// retryAfterSeconds floors to 1s.
func (s *Server) overloadRetryAfter() time.Duration {
	reqs := ctrRequests.Value()
	if reqs <= 0 {
		return 0
	}
	return time.Duration(ctrLatencyUsec.Value()/reqs) * time.Microsecond
}

// onWorkbench is the dataset stage of the two executors that compute on
// the in-memory tensor: the materialized dataset wrapped in a
// goroutine-safe Workbench, cached under the canonical dataset name (r2
// and nell2 share one entry).
type onWorkbench struct {
	wb    *kernelreg.Workbench
	wbHit bool
}

// load returns the cached Workbench for the plan's dataset,
// materializing the tensor on first use (singleflight: a thundering
// herd generates it once).
func (o *onWorkbench) load(ctx context.Context, s *Server, p *plan) (int, error) {
	e := p.entry
	val, hit, err := s.cache.getOrCreate(ctx, wbKey(e.Name), func() (any, error) {
		sp := obs.Begin("daemon.materialize", e.Name, obs.PhasePrepare, -1)
		defer sp.End()
		x, err := dataset.Materialize(e, s.cfg.NNZ, s.cfg.Seed)
		if err != nil {
			return nil, err
		}
		return kernelreg.NewWorkbench(x, s.cfg.Bench), nil
	})
	if err != nil {
		return 0, err
	}
	o.wb, o.wbHit = val.(*kernelreg.Workbench), hit
	return o.wb.X.Order(), nil
}

// instExec runs a plan on a prepared registry instance: cached per
// (dataset, variant, mode), identical concurrent requests coalesced
// onto one trial down the degradation ladder.
type instExec struct {
	onWorkbench
	v *kernelreg.Variant
}

// run fetches the prepared Instance for (dataset, variant, mode),
// preparing it on first use, and executes it.
func (e *instExec) run(ctx context.Context, s *Server, p *plan) (*RunResponse, error) {
	val, instHit, err := s.cache.getOrCreate(ctx, instKey(p.entry.Name, e.v, p.mode), func() (any, error) {
		inst, err := e.v.Prepare(e.wb, p.mode)
		if err != nil {
			return nil, err
		}
		return &instEntry{v: e.v, wb: e.wb, inst: inst, flights: make(map[runOpts]*flight)}, nil
	})
	if err != nil {
		return nil, err
	}
	resp, err := s.coalesce(ctx, val.(*instEntry), p)
	if err != nil {
		return nil, err
	}
	resp.CacheHit, resp.WorkbenchHit = instHit, e.wbHit
	return resp, nil
}

// instEntry is one cached prepared Instance plus its execution state.
// An Instance has a single output buffer, so runs serialize on mu;
// identical concurrent requests batch through flights instead of
// queuing on the lock.
type instEntry struct {
	v    *kernelreg.Variant
	wb   *kernelreg.Workbench
	inst *kernelreg.Instance

	mu sync.Mutex // serializes executions of this instance

	fmu     sync.Mutex
	flights map[runOpts]*flight
}

// runOpts is the batching key: only requests that would produce the
// same response body may share one execution.
type runOpts struct {
	verify   bool
	fallback bool
}

// errAbandoned is the cancel cause a flight's trial context carries
// when every request waiting on it has disconnected: nobody is left to
// read the result, so the work stops.
var errAbandoned = errors.New("serve: every waiter for this trial disconnected")

// flight is one in-progress execution identical requests wait on. The
// trial runs under the flight's own detached context, reference-counted
// by the requests waiting on it: each joiner registers a leave on its
// request context, and the last waiter to walk away cancels the trial —
// work nobody is waiting for stops within a chunk boundary instead of
// running to completion.
type flight struct {
	done chan struct{}
	resp *RunResponse
	err  error

	// ctx is the trial's context: detached from any single request (a
	// batched trial must survive one waiter's disconnect) and cancelled
	// with errAbandoned when waiters reaches zero.
	ctx    context.Context
	cancel context.CancelCauseFunc

	mu      sync.Mutex
	waiters int
}

func (f *flight) join() {
	f.mu.Lock()
	f.waiters++
	f.mu.Unlock()
}

func (f *flight) leave() {
	f.mu.Lock()
	f.waiters--
	last := f.waiters == 0
	f.mu.Unlock()
	if last {
		f.cancel(errAbandoned)
	}
}

// coalesce runs the instance, batching identical concurrent requests
// onto one trial: the first request becomes the leader and runs; the
// rest wait on its flight and share the result (and its measured
// time — the semantics of a benchmark batch, one execution observed by
// all). Every participant detaches when its own ctx ends (or the
// daemon starts draining), and the last one out cancels the trial.
func (s *Server) coalesce(ctx context.Context, ie *instEntry, p *plan) (*RunResponse, error) {
	ie.fmu.Lock()
	if f := ie.flights[p.opts]; f != nil {
		// join under fmu: the waiter count must be visible before the
		// leader can observe an abandoned flight.
		f.join()
		ie.fmu.Unlock()
		stop := context.AfterFunc(ctx, f.leave)
		detach := func() {
			if stop() {
				f.leave()
			}
		}
		select {
		case <-f.done:
			detach()
			ctrBatchJoined.Inc()
			if f.err != nil {
				return nil, f.err
			}
			// Copy so the caller's response mutations (cache-hit flags)
			// don't race other waiters'.
			resp := *f.resp
			resp.Batched = true
			return &resp, nil
		case <-s.gov.DrainChan():
			// Drain: joiners detach immediately (the leader finishes its
			// trial under the drain grace; waiters would only extend it).
			detach()
			return nil, fmt.Errorf("serve: joiner detached: %w", govern.ErrDraining)
		case <-ctx.Done():
			detach()
			return nil, ctxRequestErr(ctx)
		}
	}
	f := &flight{done: make(chan struct{})}
	f.ctx, f.cancel = context.WithCancelCause(context.Background())
	f.join()
	ie.flights[p.opts] = f
	ie.fmu.Unlock()
	stop := context.AfterFunc(ctx, f.leave)

	ctrBatchRuns.Inc()
	f.resp, f.err = s.runTrial(f.ctx, ie, p)
	ie.fmu.Lock()
	delete(ie.flights, p.opts)
	ie.fmu.Unlock()
	close(f.done)
	if stop() {
		f.leave()
	}
	f.cancel(nil) // release the AfterFunc resources; no-op if already cancelled
	if f.err != nil {
		// A trial cancelled because this waiter's own context ended is
		// re-classified through that context: a per-request deadline
		// renders 504, only a true disconnect renders 499 (the flight's
		// cancel cause cannot tell the two apart).
		if resilience.IsCancelled(f.err) && ctx.Err() != nil {
			return nil, ctxRequestErr(ctx)
		}
		return nil, f.err
	}
	resp := *f.resp
	return &resp, nil
}

// ctxRequestErr classifies a request context that ended while its
// owner waited on a shared flight, mapping onto the resilience taxonomy
// so statusOf renders 499 for a disconnect and 504 for a deadline.
func ctxRequestErr(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.Canceled) {
		return fmt.Errorf("serve: request cancelled: %w (%w)", resilience.ErrCancelled, context.Cause(ctx))
	}
	return fmt.Errorf("serve: request deadline: %w", resilience.ErrDeadline)
}

// runTrial executes one guarded trial of the prepared instance down
// the degradation ladder and assembles the response. ctx is the
// flight's trial context: cancelled when every waiter disconnects.
func (s *Server) runTrial(ctx context.Context, ie *instEntry, p *plan) (*RunResponse, error) {
	ie.mu.Lock()
	defer ie.mu.Unlock()
	label := ie.v.Label()
	t := ie.inst.Trial(label, 0, p.opts.fallback)
	sp := obs.Begin("daemon.trial", label.String(), obs.PhaseTrial, -1)
	var rep resilience.Report
	elapsed, err := s.timed(ctx, func(ctx context.Context) error {
		rep = s.runner.Do(ctx, t)
		return rep.Err
	})
	sp.Attr("outcome", rep.String())
	sp.End()
	if rep.Settled != nil {
		// The shared instance's output buffer must be quiescent before
		// the next request (or the verify below) touches it.
		<-rep.Settled
	}
	if err != nil {
		return nil, err
	}
	resp := &RunResponse{
		Variant:      ie.v.String(),
		Outcome:      rep.String(),
		Backend:      rep.Backend,
		FellFrom:     rep.FellFrom,
		Attempts:     rep.Attempts,
		Flops:        ie.inst.Flops,
		BreakersOpen: s.openBreakers(),
	}
	if ie.inst.Strategy != nil && rep.Backend == label.Backend {
		resp.Strategy = ie.inst.Strategy()
	}
	return p.finish(ctx, resp, elapsed, ie.wb, ie.inst.Output)
}

// Governor exposes the server's resource governor (pastad reads drain
// state and budget for its shutdown sequence and logs).
func (s *Server) Governor() *govern.Governor { return s.gov }

// BeginDrain flips the daemon into draining mode: new requests are
// rejected 503 with a Retry-After hint, joiners waiting on shared
// flights detach, and in-flight leaders run to completion. Idempotent.
func (s *Server) BeginDrain() { s.gov.BeginDrain() }

// Drain performs a full graceful drain: stop admitting, then wait for
// every admitted lease to release, bounded by ctx (callers typically
// pass a context carrying the drain grace). Returns nil when the
// daemon is idle, or the ctx error annotated with what is still held.
func (s *Server) Drain(ctx context.Context) error {
	s.gov.BeginDrain()
	return s.gov.AwaitIdle(ctx)
}

// openBreakers lists the ladder rungs whose circuit breaker is open:
// every backend the registry knows, then the serial fallback.
func (s *Server) openBreakers() []string {
	var out []string
	for _, b := range kernelreg.Backends {
		if s.runner.BreakerOpen(b.String()) {
			out = append(out, b.String())
		}
	}
	if s.runner.BreakerOpen(kernelreg.SerialRung) {
		out = append(out, kernelreg.SerialRung)
	}
	return out
}
