package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kernelreg"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// newTestDaemon mounts a fresh Server on an httptest listener. Small
// NNZ keeps the suite fast under -race while still exercising every
// kernel.
func newTestDaemon(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.NNZ == 0 {
		cfg.NNZ = 1500
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// requestCost is the in-core admission charge for req on s: the resolve
// and cost stages, without admitting anything.
func requestCost(s *Server, req RunRequest) (int64, error) {
	p, err := s.resolve(req)
	if err != nil {
		return 0, err
	}
	return p.exec.cost(s, p), nil
}

// postRun sends one POST /run and decodes the response into out (a
// *RunResponse on 2xx, *errorResponse otherwise).
func postRun(t *testing.T, base string, req RunRequest, client string) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, base+"/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if client != "" {
		hr.Header.Set("X-Pasta-Client", client)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func decodeRun(t *testing.T, b []byte) RunResponse {
	t.Helper()
	var rr RunResponse
	if err := json.Unmarshal(b, &rr); err != nil {
		t.Fatalf("bad run response %s: %v", b, err)
	}
	return rr
}

func decodeError(t *testing.T, b []byte) ErrorBody {
	t.Helper()
	var er errorResponse
	if err := json.Unmarshal(b, &er); err != nil {
		t.Fatalf("bad error response %s: %v", b, err)
	}
	return er.Error
}

func TestDaemonHealthzVariantsMetrics(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz["status"] != "ok" {
		t.Fatalf("healthz = %v", hz)
	}

	resp, err = http.Get(ts.URL + "/variants")
	if err != nil {
		t.Fatal(err)
	}
	var vars []variantInfo
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(vars) != len(kernelreg.All()) {
		t.Fatalf("/variants listed %d variants, registry has %d", len(vars), len(kernelreg.All()))
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"pasta_daemon_uptime_seconds", "pasta_daemon_cache_entries"} {
		if !strings.Contains(string(mb), want) {
			t.Fatalf("/metrics missing %s:\n%s", want, mb)
		}
	}
}

// TestDaemonConcurrentMixedVariants is the headline acceptance test:
// at least 32 concurrent clients hammer one daemon across kernels,
// formats, backends, and modes with verification on. Every response
// must match the serial COO reference, and the shared caches must
// show real hit traffic (everything after the first build of each
// (dataset, variant, mode) is a hit).
func TestDaemonConcurrentMixedVariants(t *testing.T) {
	_, ts := newTestDaemon(t, Config{MaxInflight: 64})

	reqs := []RunRequest{
		{Dataset: "nell2", Kernel: "Tew", Format: "COO", Verify: true},
		{Dataset: "nell2", Kernel: "Ts", Format: "HiCOO", Verify: true},
		{Dataset: "nell2", Kernel: "Ttv", Format: "COO", Mode: 0, Verify: true},
		{Dataset: "nell2", Kernel: "Ttv", Format: "HiCOO", Mode: 1, Verify: true},
		{Dataset: "nell2", Kernel: "Ttv", Format: "CSF", Mode: 2, Verify: true},
		{Dataset: "nell2", Kernel: "Ttm", Format: "COO", Mode: 1, Verify: true},
		{Dataset: "nell2", Kernel: "Mttkrp", Format: "COO", Mode: 0, Verify: true},
		{Dataset: "nell2", Kernel: "Mttkrp", Format: "HiCOO", Mode: 1, Verify: true},
		{Dataset: "nell2", Kernel: "Mttkrp", Format: "fCOO", Mode: 2, Verify: true},
		{Dataset: "r2", Kernel: "Mttkrp", Format: "COO", Mode: 0, Backend: "gpu", Verify: true},
		{Dataset: "nell2", Kernel: "Ttv", Format: "COO", Mode: 1, Backend: "multigpu", Verify: true},
	}

	hits0, misses0 := ctrCacheHits.Value(), ctrCacheMisses.Value()

	const clients = 32
	const perClient = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				req := reqs[(g+i)%len(reqs)]
				status, body := postRun(t, ts.URL, req, fmt.Sprintf("client-%d", g))
				if status != http.StatusOK {
					errs <- fmt.Errorf("%s/%s: HTTP %d: %s", req.Kernel, req.Format, status, body)
					return
				}
				rr := decodeRun(t, body)
				if rr.Outcome != "ok" {
					errs <- fmt.Errorf("%s outcome %q (backend %s)", rr.Variant, rr.Outcome, rr.Backend)
					return
				}
				if rr.Deviation == nil {
					errs <- fmt.Errorf("%s: verify requested but no deviation reported", rr.Variant)
					return
				}
				if *rr.Deviation > 2e-3 {
					errs <- fmt.Errorf("%s deviates %g from serial COO reference", rr.Variant, *rr.Deviation)
					return
				}
				if rr.Flops <= 0 || rr.ElapsedSec <= 0 {
					errs <- fmt.Errorf("%s: implausible accounting %+v", rr.Variant, rr)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Cache accounting: r2 and nell2 are the same dataset, so the run
	// builds exactly 1 workbench + one instance per distinct
	// (variant, mode) — everything else must be hits. (Lookups that
	// joined an in-flight build count as misses, so the miss delta may
	// exceed the distinct-key count, but hits must dominate at this
	// request volume.)
	hits := ctrCacheHits.Value() - hits0
	misses := ctrCacheMisses.Value() - misses0
	distinct := int64(1 + len(reqs)) // "wb:nell2" + one inst per request shape
	if misses < distinct {
		t.Fatalf("cache misses = %d, want at least %d (one per distinct key)", misses, distinct)
	}
	if hits == 0 {
		t.Fatal("no cache hits across 128 overlapping requests")
	}
	// Every request touches 2 keys (workbench + instance).
	total := int64(clients * perClient * 2)
	if hits+misses != total {
		t.Fatalf("cache lookups = %d (hits %d + misses %d), want %d", hits+misses, hits, misses, total)
	}
}

func TestDaemonQuotaExhaustion(t *testing.T) {
	_, ts := newTestDaemon(t, Config{QuotaLimit: 3, QuotaWindow: time.Hour})

	req := RunRequest{Dataset: "nell2", Kernel: "Tew", Format: "COO"}
	for i := 0; i < 3; i++ {
		status, body := postRun(t, ts.URL, req, "greedy")
		if status != http.StatusOK {
			t.Fatalf("request %d within quota: HTTP %d: %s", i, status, body)
		}
	}
	status, body := postRun(t, ts.URL, req, "greedy")
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-quota request: HTTP %d, want 429: %s", status, body)
	}
	if eb := decodeError(t, body); eb.Type != "quota" {
		t.Fatalf("over-quota error type %q, want \"quota\"", eb.Type)
	}
	// Another client is unaffected: quotas are per-client, not global.
	if status, body := postRun(t, ts.URL, req, "patient"); status != http.StatusOK {
		t.Fatalf("other client throttled too: HTTP %d: %s", status, body)
	}
}

// TestDaemonPanicTypedError injects a persistent panic into the OMP
// chunk hook and disables the serial fallback: the daemon must return
// a typed error payload classifying the panic — and keep serving.
func TestDaemonPanicTypedError(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})

	inj := resilience.NewInjector(7)
	inj.Install()
	defer inj.Uninstall()
	inj.Arm(context.Background(), resilience.FaultPanic, 0, 0) // every chunk: retries cannot clear it
	defer inj.Disarm()

	no := false
	req := RunRequest{Dataset: "nell2", Kernel: "Mttkrp", Format: "COO", Backend: "omp", Fallback: &no}
	status, body := postRun(t, ts.URL, req, "chaos")
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking kernel: HTTP %d, want 500: %s", status, body)
	}
	eb := decodeError(t, body)
	if eb.Type != "panic" {
		t.Fatalf("error type %q, want \"panic\": %s", eb.Type, body)
	}
	if eb.Kernel != "Mttkrp" || eb.Format != "COO" || eb.Backend != "omp" {
		t.Fatalf("error payload lost the trial label: %+v", eb)
	}
	if inj.Injected() == 0 {
		t.Fatal("injector never fired; the test proved nothing")
	}

	// The contained panic must not have killed the server: disarm and
	// the same request succeeds on the same cached instance.
	inj.Disarm()
	status, body = postRun(t, ts.URL, req, "chaos")
	if status != http.StatusOK {
		t.Fatalf("daemon did not survive the panic: HTTP %d: %s", status, body)
	}
	if rr := decodeRun(t, body); rr.Outcome != "ok" || !rr.CacheHit {
		t.Fatalf("post-panic run %+v, want ok on the cached instance", rr)
	}
}

// TestDaemonFallbackDegradation: with fallback enabled (the default) a
// persistently panicking OMP backend degrades to the serial rung and
// reports it instead of failing.
func TestDaemonFallbackDegradation(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})

	inj := resilience.NewInjector(11)
	inj.Install()
	defer inj.Uninstall()
	inj.Arm(context.Background(), resilience.FaultPanic, 0, 0)
	defer inj.Disarm()

	req := RunRequest{Dataset: "nell2", Kernel: "Ttv", Format: "COO", Backend: "omp", Verify: true}
	status, body := postRun(t, ts.URL, req, "chaos")
	if status != http.StatusOK {
		t.Fatalf("fallback run: HTTP %d: %s", status, body)
	}
	rr := decodeRun(t, body)
	if rr.Backend != "serial" || rr.FellFrom != "omp" {
		t.Fatalf("expected fell-back:serial from omp, got %+v", rr)
	}
	if rr.Deviation == nil || *rr.Deviation > 2e-3 {
		t.Fatalf("degraded result not verified: %+v", rr)
	}
}

func TestDaemonRequestErrors(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})

	cases := []struct {
		name   string
		req    RunRequest
		status int
		typ    string
	}{
		{"unknown dataset", RunRequest{Dataset: "nope", Kernel: "Tew", Format: "COO"}, http.StatusNotFound, "not-found"},
		{"unknown kernel", RunRequest{Dataset: "nell2", Kernel: "Conv2D", Format: "COO"}, http.StatusBadRequest, "bad-request"},
		{"unknown format", RunRequest{Dataset: "nell2", Kernel: "Tew", Format: "CSR"}, http.StatusBadRequest, "bad-request"},
		{"unknown backend", RunRequest{Dataset: "nell2", Kernel: "Tew", Format: "COO", Backend: "tpu"}, http.StatusBadRequest, "bad-request"},
		{"mode out of range", RunRequest{Dataset: "nell2", Kernel: "Ttv", Format: "COO", Mode: 9}, http.StatusBadRequest, "bad-request"},
		// Tew has no generic level-iterator body, so Tew/CSF stays an
		// unregistered cell even under grid generation.
		{"unregistered variant", RunRequest{Dataset: "nell2", Kernel: "Tew", Format: "CSF"}, http.StatusNotFound, "unsupported"},
	}
	for _, tc := range cases {
		status, body := postRun(t, ts.URL, tc.req, "")
		if status != tc.status {
			t.Errorf("%s: HTTP %d, want %d: %s", tc.name, status, tc.status, body)
			continue
		}
		if eb := decodeError(t, body); eb.Type != tc.typ {
			t.Errorf("%s: error type %q, want %q", tc.name, eb.Type, tc.typ)
		}
	}

	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /run: HTTP %d, want 405", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/run", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: HTTP %d, want 400: %s", resp.StatusCode, b)
	}
}

// TestDaemonMetricsExportsObsCounters: after traffic, /metrics must
// expose both daemon counters and the kernel-runtime counters that the
// rest of the suite maintains, in Prometheus text format.
func TestDaemonMetricsExportsObsCounters(t *testing.T) {
	obs.EnableCounters(true)
	defer obs.EnableCounters(false)
	_, ts := newTestDaemon(t, Config{})

	req := RunRequest{Dataset: "nell2", Kernel: "Mttkrp", Format: "HiCOO"}
	for i := 0; i < 2; i++ {
		if status, body := postRun(t, ts.URL, req, "scraper"); status != http.StatusOK {
			t.Fatalf("HTTP %d: %s", status, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(mb)
	for _, want := range []string{
		"# TYPE pasta_daemon_requests counter",
		"pasta_daemon_cache_hits",
		"pasta_daemon_cache_misses",
		"pasta_daemon_client_scraper_requests 2",
		"pasta_parallel_chunks", // a kernel-runtime counter from internal/parallel
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestCacheEviction: a 1×1 cache must evict the cold entry and count
// it.
func TestCacheEviction(t *testing.T) {
	c := newCache(1, 1)
	ev0 := ctrCacheEvictions.Value()
	if _, hit, _ := c.getOrCreate(context.Background(), "a", func() (any, error) { return 1, nil }); hit {
		t.Fatal("first build reported a hit")
	}
	if _, hit, _ := c.getOrCreate(context.Background(), "b", func() (any, error) { return 2, nil }); hit {
		t.Fatal("distinct key reported a hit")
	}
	if got := ctrCacheEvictions.Value() - ev0; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if _, hit, _ := c.getOrCreate(context.Background(), "a", func() (any, error) { return 1, nil }); hit {
		t.Fatal("evicted key reported a hit")
	}
	if c.len() != 1 {
		t.Fatalf("cache holds %d entries, cap is 1", c.len())
	}
}

// TestCacheSingleflight: concurrent requests for one missing key run
// the build exactly once.
func TestCacheSingleflight(t *testing.T) {
	c := newCache(4, 8)
	var builds int32
	var mu sync.Mutex
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, _, err := c.getOrCreate(context.Background(), "k", func() (any, error) {
				mu.Lock()
				builds++
				mu.Unlock()
				time.Sleep(5 * time.Millisecond)
				return "built", nil
			})
			if err != nil || v != "built" {
				t.Errorf("got %v, %v", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if builds != 1 {
		t.Fatalf("build ran %d times, want 1", builds)
	}
}

// TestCacheFailedBuildRetries: a build error is returned to all
// waiters but not cached, so the next request rebuilds.
func TestCacheFailedBuildRetries(t *testing.T) {
	c := newCache(1, 4)
	boom := fmt.Errorf("boom")
	if _, _, err := c.getOrCreate(context.Background(), "k", func() (any, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	v, hit, err := c.getOrCreate(context.Background(), "k", func() (any, error) { return 42, nil })
	if err != nil || hit || v != 42 {
		t.Fatalf("retry after failed build: %v %v %v", v, hit, err)
	}
}

// TestBreakersOpenCoversEveryRegisteredBackend: the breakersOpen field
// is derived from the registry's backend list, so an open breaker on the
// streaming backend — registered since the ooc variants landed, but
// missing from the hard-coded list this replaced — is reported like any
// other.
func TestBreakersOpenCoversEveryRegisteredBackend(t *testing.T) {
	runner := &resilience.Runner{BreakerThreshold: 1}
	_, ts := newTestDaemon(t, Config{Runner: runner})

	ooc := kernelreg.OOC.String()
	rep := runner.Do(context.Background(), resilience.Trial{
		Label: resilience.Label{Kernel: "Ttv", Format: "COO", Backend: ooc},
		Rungs: []resilience.Rung{{Backend: ooc, Exec: func(context.Context) error {
			return fmt.Errorf("injected stream failure")
		}}},
	})
	if rep.Err == nil || !runner.BreakerOpen(ooc) {
		t.Fatalf("failing trial did not trip the %s breaker: %+v", ooc, rep)
	}

	status, body := postRun(t, ts.URL, RunRequest{Dataset: "nell2", Kernel: "Ts", Format: "COO"}, "breakers")
	if status != http.StatusOK {
		t.Fatalf("in-core run beside an open %s breaker: HTTP %d: %s", ooc, status, body)
	}
	rr := decodeRun(t, body)
	if len(rr.BreakersOpen) != 1 || rr.BreakersOpen[0] != ooc {
		t.Fatalf("breakersOpen = %v, want [%s]", rr.BreakersOpen, ooc)
	}
}
