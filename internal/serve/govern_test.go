package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// postRunCtx is postRun with a caller-owned request context (the
// disconnect tests cancel it mid-flight) and optional extra headers.
func postRunCtx(ctx context.Context, base string, req RunRequest, client string, hdr map[string]string) (int, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/run", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if client != "" {
		hr.Header.Set("X-Pasta-Client", client)
	}
	for k, v := range hdr {
		hr.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	return resp.StatusCode, buf.Bytes(), nil
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDisconnectCancelsTrialAndRefundsQuota is the satellite regression
// for the bug where handlers ignored r.Context(): a client that hangs
// up mid-trial must have its trial cancelled (govern.cancelled counts
// it) and its quota charge refunded.
func TestDisconnectCancelsTrialAndRefundsQuota(t *testing.T) {
	_, ts := newTestDaemon(t, Config{QuotaLimit: 100, AdmitWait: 20 * time.Millisecond})

	// Warm the workbench/instance so the cancel lands mid-trial, not
	// mid-materialize.
	req := RunRequest{Dataset: "nell2", Kernel: "Mttkrp", Format: "COO", Backend: "omp"}
	if status, body := postRun(t, ts.URL, req, "warm"); status != http.StatusOK {
		t.Fatalf("warm-up: HTTP %d: %s", status, body)
	}

	chaosCtx, chaosCancel := context.WithCancel(context.Background())
	defer chaosCancel()
	inj := resilience.NewInjector(3)
	inj.Install()
	defer inj.Uninstall()
	inj.Arm(chaosCtx, resilience.FaultStall, 0, 400*time.Millisecond)
	defer inj.Disarm()

	cancelled := obs.GetCounter("govern.cancelled")
	clientCtr := obs.GetCounter("daemon.client.waffler.requests")
	cancelledBefore := cancelled.Value()
	chargedBefore := clientCtr.Value()

	reqCtx, cancelReq := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := postRunCtx(reqCtx, ts.URL, req, "waffler", nil)
		done <- err
	}()
	// The stall hook firing means the trial is executing chunks.
	waitFor(t, 5*time.Second, "trial to start", func() bool { return inj.Injected() > 0 })
	cancelReq()
	if err := <-done; err == nil {
		t.Fatal("client cancel produced a normal response; want a transport error")
	}
	// The handler observes the disconnect asynchronously: wait for the
	// cancellation to be counted and the quota charge to come back.
	waitFor(t, 5*time.Second, "cancellation accounting", func() bool {
		return cancelled.Value() > cancelledBefore && clientCtr.Value() == chargedBefore
	})
	chaosCancel() // release the stalled worker before the next test
}

// TestDeadlineHeaderBoundsTrial: a request deadline set via the
// X-Pasta-Deadline header expires server-side → 504 deadline, and the
// charge is NOT refunded (the daemon did the work the client asked
// for; the client just asked for too little time).
func TestDeadlineHeaderBoundsTrial(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	req := RunRequest{Dataset: "nell2", Kernel: "Ts", Format: "COO", Backend: "omp"}
	if status, body := postRun(t, ts.URL, req, "hasty"); status != http.StatusOK {
		t.Fatalf("warm-up: HTTP %d: %s", status, body)
	}

	chaosCtx, chaosCancel := context.WithCancel(context.Background())
	defer chaosCancel()
	inj := resilience.NewInjector(5)
	inj.Install()
	defer inj.Uninstall()
	inj.Arm(chaosCtx, resilience.FaultStall, 0, 300*time.Millisecond)
	defer inj.Disarm()

	status, body, err := postRunCtx(context.Background(), ts.URL, req, "hasty",
		map[string]string{deadlineHeader: "30ms"})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline header: HTTP %d, want 504: %s", status, body)
	}
	chaosCancel()

	// An unparseable deadline is a 400, before any work.
	status, body, err = postRunCtx(context.Background(), ts.URL, req, "hasty",
		map[string]string{deadlineHeader: "soon"})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusBadRequest {
		t.Fatalf("bad deadline header: HTTP %d, want 400: %s", status, body)
	}
}

// TestOverBudgetRejected413: a request whose predicted working set
// exceeds the whole budget can never run and is rejected 413 with the
// shed counter bumped.
func TestOverBudgetRejected413(t *testing.T) {
	_, ts := newTestDaemon(t, Config{MemBudget: 4096})
	shed := obs.GetCounter("govern.shed")
	before := shed.Value()
	status, body := postRun(t, ts.URL,
		RunRequest{Dataset: "nell2", Kernel: "Mttkrp", Format: "HiCOO"}, "glutton")
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget request: HTTP %d, want 413: %s", status, body)
	}
	if eb := decodeError(t, body); eb.Type != "over-budget" {
		t.Fatalf("error type %q, want over-budget: %s", eb.Type, body)
	}
	if shed.Value() <= before {
		t.Fatal("413 did not count as a shed")
	}
}

// TestCostAwareShedding: with a budget that fits one medium request,
// concurrent distinct requests contend at the gate; the ones that
// cannot fit within AdmitWait are shed 503 while at least one runs —
// and after the dust settles the inflight gauge is back to zero.
func TestCostAwareShedding(t *testing.T) {
	// Size the budget from the model itself so the test tracks it:
	// one Mttkrp/COO fits, two do not.
	cost, err := requestCost(New(Config{NNZ: 1500}), RunRequest{Dataset: "nell2", Kernel: "Mttkrp", Format: "COO"})
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestDaemon(t, Config{NNZ: 1500, AdmitWait: 10 * time.Millisecond, MemBudget: cost + cost/2})

	// Warm the workbench so admission cost is per-request transient +
	// instance, well under budget individually.
	if status, body := postRun(t, ts2.URL, RunRequest{Dataset: "nell2", Kernel: "Ts", Format: "COO"}, "warm"); status != http.StatusOK {
		t.Fatalf("warm-up: HTTP %d: %s", status, body)
	}

	chaosCtx, chaosCancel := context.WithCancel(context.Background())
	defer chaosCancel()
	inj := resilience.NewInjector(9)
	inj.Install()
	defer inj.Uninstall()
	inj.Arm(chaosCtx, resilience.FaultStall, 0, 150*time.Millisecond)
	defer inj.Disarm()

	// Distinct kernel×format pairs: no two batch onto one flight, so
	// each needs its own admission.
	reqs := []RunRequest{
		{Dataset: "nell2", Kernel: "Mttkrp", Format: "COO"},
		{Dataset: "nell2", Kernel: "Mttkrp", Format: "HiCOO"},
		{Dataset: "nell2", Kernel: "Mttkrp", Format: "CSF"},
		{Dataset: "nell2", Kernel: "Ttv", Format: "COO"},
		{Dataset: "nell2", Kernel: "Ttv", Format: "HiCOO"},
		{Dataset: "nell2", Kernel: "Tew", Format: "COO"},
	}
	var ok503, ok200 atomic.Int64
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r RunRequest) {
			defer wg.Done()
			status, body := postRun(t, ts2.URL, r, fmt.Sprintf("c%d", i))
			switch status {
			case http.StatusOK:
				ok200.Add(1)
			case http.StatusServiceUnavailable:
				ok503.Add(1)
			default:
				t.Errorf("request %d: unexpected HTTP %d: %s", i, status, body)
			}
		}(i, r)
	}
	wg.Wait()
	if ok200.Load() == 0 {
		t.Fatal("no request was admitted; the gate wedged shut")
	}
	if ok503.Load() == 0 {
		t.Fatal("no request was shed; the budget did not bite")
	}
	t.Logf("admitted %d, shed %d", ok200.Load(), ok503.Load())
}

// TestDrainDetachesJoinersAndRejectsNew: once BeginDrain is called,
// joiners waiting on a shared flight detach with 503 draining (without
// waiting out the trial), new requests are rejected 503, healthz says
// "draining", and the leader's trial runs to completion.
func TestDrainDetachesJoinersAndRejectsNew(t *testing.T) {
	s, ts := newTestDaemon(t, Config{DrainGrace: 5 * time.Second})
	req := RunRequest{Dataset: "nell2", Kernel: "Ttv", Format: "COO", Backend: "omp"}
	if status, body := postRun(t, ts.URL, req, "warm"); status != http.StatusOK {
		t.Fatalf("warm-up: HTTP %d: %s", status, body)
	}

	chaosCtx, chaosCancel := context.WithCancel(context.Background())
	defer chaosCancel()
	inj := resilience.NewInjector(13)
	inj.Install()
	defer inj.Uninstall()
	inj.Arm(chaosCtx, resilience.FaultStall, 0, 150*time.Millisecond)
	defer inj.Disarm()

	leader := make(chan int, 1)
	go func() {
		status, _ := postRun(t, ts.URL, req, "leader")
		leader <- status
	}()
	waitFor(t, 5*time.Second, "leader trial to start", func() bool { return inj.Injected() > 0 })

	joiner := make(chan int, 1)
	joinStart := time.Now()
	go func() {
		status, _ := postRun(t, ts.URL, req, "joiner")
		joiner <- status
	}()
	// Give the joiner a moment to latch onto the flight, then drain.
	time.Sleep(20 * time.Millisecond)
	s.BeginDrain()

	if status := <-joiner; status != http.StatusServiceUnavailable {
		t.Fatalf("joiner during drain: HTTP %d, want 503", status)
	}
	if waited := time.Since(joinStart); waited > 2*time.Second {
		t.Fatalf("joiner detached only after %v; drain should detach promptly", waited)
	}
	if status, body := postRun(t, ts.URL, req, "latecomer"); status != http.StatusServiceUnavailable {
		t.Fatalf("new request during drain: HTTP %d, want 503: %s", status, body)
	} else if eb := decodeError(t, body); eb.Type != "draining" {
		t.Fatalf("error type %q, want draining", eb.Type)
	}

	var hz map[string]any
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&hz) //nolint:errcheck
	resp.Body.Close()
	if hz["status"] != "draining" {
		t.Fatalf("healthz status %v, want draining", hz["status"])
	}

	// The leader was admitted before the drain began: it completes.
	if status := <-leader; status != http.StatusOK {
		t.Fatalf("leader during drain: HTTP %d, want 200", status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain after leader finished: %v", err)
	}
	if n := s.Governor().BytesInflight(); n != 0 {
		t.Fatalf("drained daemon still holds %d in-flight bytes", n)
	}
}

// TestShutdownMidFlight drives the real pastad shutdown sequence —
// BeginDrain, http shutdown, governor drain — with a request in
// flight on a real listener: the in-flight request gets its terminal
// response and the drain completes within grace.
func TestShutdownMidFlight(t *testing.T) {
	s := New(Config{NNZ: 1500, DrainGrace: 5 * time.Second})
	hs, err := StartHTTP("127.0.0.1:0", s.Handler())
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + hs.Addr()
	req := RunRequest{Dataset: "nell2", Kernel: "Ts", Format: "COO", Backend: "omp"}
	if status, body := postRun(t, base, req, "warm"); status != http.StatusOK {
		t.Fatalf("warm-up: HTTP %d: %s", status, body)
	}

	chaosCtx, chaosCancel := context.WithCancel(context.Background())
	defer chaosCancel()
	inj := resilience.NewInjector(17)
	inj.Install()
	defer inj.Uninstall()
	inj.Arm(chaosCtx, resilience.FaultStall, 0, 200*time.Millisecond)
	defer inj.Disarm()

	inflight := make(chan int, 1)
	go func() {
		status, _ := postRun(t, base, req, "midflight")
		inflight <- status
	}()
	waitFor(t, 5*time.Second, "request to start", func() bool { return inj.Injected() > 0 })

	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("http shutdown: %v", err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("governor drain: %v", err)
	}
	if status := <-inflight; status != http.StatusOK {
		t.Fatalf("mid-flight request during shutdown: HTTP %d, want 200", status)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestQuotaClientChurnAtCap: the per-client tracking map must stop
// growing at maxTrackedClients under a churn of distinct client ids;
// overflow clients are admitted quota-exempt, and a refund for an
// untracked client lands on the overflow counter.
func TestQuotaClientChurnAtCap(t *testing.T) {
	q := newQuotas(1, 0)
	overflowBefore := ctrClientOverflow.Value()
	for i := 0; i < maxTrackedClients+200; i++ {
		ok, _ := q.admit(fmt.Sprintf("churn-%04d", i))
		if !ok {
			t.Fatalf("first request of client %d rejected", i)
		}
	}
	q.mu.Lock()
	tracked := len(q.m)
	q.mu.Unlock()
	if tracked != maxTrackedClients {
		t.Fatalf("tracking map grew to %d, cap is %d", tracked, maxTrackedClients)
	}
	if got := ctrClientOverflow.Value() - overflowBefore; got != 200 {
		t.Fatalf("overflow counter moved by %d, want 200", got)
	}
	// A tracked client is still throttled at its limit...
	if ok, _ := q.admit("churn-0000"); ok {
		t.Fatal("tracked client admitted past its lifetime limit")
	}
	// ...an overflow client is exempt (the bucket mixes callers)...
	if ok, _ := q.admit(fmt.Sprintf("churn-%04d", maxTrackedClients+10)); !ok {
		t.Fatal("overflow client throttled; overflow is quota-exempt")
	}
	// ...and an untracked refund decrements the shared overflow cell.
	mark := ctrClientOverflow.Value()
	q.refund("never-seen")
	if got := ctrClientOverflow.Value(); got != mark-1 {
		t.Fatalf("untracked refund moved overflow to %d, want %d", got, mark-1)
	}
}

// TestRetryAfterSecondsBoundaries pins the header-rendering edges: the
// 1s floor (zero and sub-second), exact seconds, rounding up, and the
// one-hour cap.
func TestRetryAfterSecondsBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{-time.Second, "1"},
		{500 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{5 * time.Second, "5"},
		{time.Hour, "3600"},
		{time.Hour + time.Second, "3600"},
		{24 * time.Hour, "3600"},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

// TestOverloadSoak hammers a small-budget daemon with a mix of cheap,
// oversized, and abandoning clients, then drains. Invariants: shed and
// cancelled counters moved, cancellations never tripped a breaker,
// the governor returns to zero bytes in flight, heap stays bounded,
// and no goroutines leak.
func TestOverloadSoak(t *testing.T) {
	cost, err := requestCost(New(Config{NNZ: 1500}), RunRequest{Dataset: "nell2", Kernel: "Mttkrp", Format: "COO"})
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestDaemon(t, Config{
		NNZ: 1500, AdmitWait: 5 * time.Millisecond, DrainGrace: 10 * time.Second,
		MemBudget: cost + cost/2,
	})

	// Warm every dataset/instance the soak touches so the loop measures
	// steady state, not materialization.
	for _, r := range []RunRequest{
		{Dataset: "nell2", Kernel: "Ts", Format: "COO"},
		{Dataset: "nell2", Kernel: "Ttv", Format: "COO"},
		{Dataset: "nell2", Kernel: "Mttkrp", Format: "COO"},
	} {
		if status, body := postRun(t, ts2.URL, r, "warm"); status != http.StatusOK {
			t.Fatalf("warm-up %+v: HTTP %d: %s", r, status, body)
		}
	}

	// A small per-chunk stall keeps trials in flight long enough for
	// admission to actually contend; without it leases release faster
	// than the soak can overlap them.
	chaosCtx, chaosCancel := context.WithCancel(context.Background())
	defer chaosCancel()
	inj := resilience.NewInjector(11)
	inj.Install()
	defer inj.Uninstall()
	inj.Arm(chaosCtx, resilience.FaultStall, 0, 10*time.Millisecond)
	defer inj.Disarm()

	shed := obs.GetCounter("govern.shed")
	cancelled := obs.GetCounter("govern.cancelled")
	trips := obs.GetCounter("resilience.breaker_trips")
	shedBefore, cancelledBefore, tripsBefore := shed.Value(), cancelled.Value(), trips.Value()

	baselineGoroutines := runtime.NumGoroutine()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	const soakFor = 1500 * time.Millisecond
	stopAt := time.Now().Add(soakFor)
	var wg sync.WaitGroup
	// Cheap requesters: should mostly succeed (some shed under spikes).
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := RunRequest{Dataset: "nell2", Kernel: "Ts", Format: "COO"}
			for time.Now().Before(stopAt) {
				postRunCtx(context.Background(), ts2.URL, r, fmt.Sprintf("cheap%d", i), nil) //nolint:errcheck
			}
		}(i)
	}
	// Heavy requesters: distinct flights contending for the budget.
	heavy := []RunRequest{
		{Dataset: "nell2", Kernel: "Mttkrp", Format: "COO"},
		{Dataset: "nell2", Kernel: "Mttkrp", Format: "HiCOO"},
		{Dataset: "nell2", Kernel: "Ttv", Format: "COO"},
	}
	for i, r := range heavy {
		wg.Add(1)
		go func(i int, r RunRequest) {
			defer wg.Done()
			for time.Now().Before(stopAt) {
				postRunCtx(context.Background(), ts2.URL, r, fmt.Sprintf("heavy%d", i), nil) //nolint:errcheck
			}
		}(i, r)
	}
	// Abandoners: cancel shortly after sending.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := RunRequest{Dataset: "nell2", Kernel: "Mttkrp", Format: "CSF"}
			for time.Now().Before(stopAt) {
				ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
				postRunCtx(ctx, ts2.URL, r, fmt.Sprintf("flaky%d", i), nil) //nolint:errcheck
				cancel()
			}
		}(i)
	}
	wg.Wait()

	if shed.Value() == shedBefore {
		t.Error("soak produced no sheds; the budget never bit")
	}
	if cancelled.Value() == cancelledBefore {
		t.Error("soak produced no cancellations; abandoners were not detected")
	}
	if got := trips.Value() - tripsBefore; got != 0 {
		t.Errorf("cancellations tripped %d breakers; cancels must not feed breakers", got)
	}

	// Drain: all leases return, so abandoned work stopped charging.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s2.Drain(ctx); err != nil {
		t.Fatalf("drain after soak: %v", err)
	}
	if n := s2.Governor().BytesInflight(); n != 0 {
		t.Fatalf("governor holds %d bytes after drain; cancelled leases leaked", n)
	}

	// Goroutines settle back near the baseline (straggling stalls and
	// HTTP keepalives need a beat). Hand-rolled: no external leak
	// detector dependencies.
	waitFor(t, 5*time.Second, "goroutines to settle", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baselineGoroutines+10
	})

	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	budget := s2.Governor().Budget()
	slack := int64(64 << 20) // runtime noise, test harness, warm caches
	if grew := int64(m1.HeapInuse) - int64(m0.HeapInuse); grew > budget+slack {
		t.Errorf("heap grew %d bytes during soak, budget %d + slack %d", grew, budget, slack)
	}
}
