package serve

import (
	"context"
	"errors"
	"math"
	"net/http"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/kernelreg"
	"repro/internal/obs"
	"repro/internal/ooc"
	"repro/internal/resilience"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// streamedRequest is a request the tile stream can serve, and a daemon
// config whose budget is one byte under its in-core cost: admit
// re-resolves it onto the stream executor.
func streamedRequest(t *testing.T, cfg Config) (RunRequest, Config) {
	t.Helper()
	req := RunRequest{Dataset: "nell2", Kernel: "Mttkrp", Format: "COO", Mode: 1}
	cfg.NNZ = 1500
	incore, err := requestCost(New(cfg), req)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MemBudget = incore - 1
	return req, cfg
}

// TestStreamedDeadlineIs504: a deadline expiring during a rerouted
// out-of-core run is a deadline, not a disconnect — 504, the quota
// charge stands, govern.cancelled does not move. (The stream's own
// handler once tested the deadline-wrapped context and answered 499
// with a refund; the classification now exists once, in encode.)
func TestStreamedDeadlineIs504(t *testing.T) {
	req, cfg := streamedRequest(t, Config{QuotaLimit: 100})
	_, ts := newTestDaemon(t, cfg)
	// Spool first, so the deadline lands in the stream, not the spool.
	status, body := postRun(t, ts.URL, req, "warm")
	if status != http.StatusOK || decodeRun(t, body).Backend != "ooc" {
		t.Fatalf("warm-up not streamed: HTTP %d: %s", status, body)
	}

	chaosCtx, chaosCancel := context.WithCancel(context.Background())
	defer chaosCancel()
	inj := resilience.NewInjector(11)
	inj.Install()
	defer inj.Uninstall()
	inj.Arm(chaosCtx, resilience.FaultStall, 0, 300*time.Millisecond)
	defer inj.Disarm()

	cancelled := obs.GetCounter("govern.cancelled")
	charged := obs.GetCounter("daemon.client.hasty_streamer.requests")
	cancelledBefore, chargedBefore := cancelled.Value(), charged.Value()

	status, body, err := postRunCtx(context.Background(), ts.URL, req, "hasty_streamer",
		map[string]string{deadlineHeader: "30ms"})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusGatewayTimeout {
		t.Fatalf("deadline during a streamed run: HTTP %d, want 504: %s", status, body)
	}
	if eb := decodeError(t, body); eb.Type != "deadline" {
		t.Fatalf("error type %q, want deadline: %s", eb.Type, body)
	}
	if got := cancelled.Value(); got != cancelledBefore {
		t.Fatalf("govern.cancelled moved %d -> %d on a deadline", cancelledBefore, got)
	}
	if got := charged.Value(); got != chargedBefore+1 {
		t.Fatalf("client charge %d -> %d, want the deadline'd request to stay charged", chargedBefore, got)
	}
}

// TestStreamBudgetDecidedOnce: where the spool's tiles need a bigger
// window than a quarter of the daemon budget, the floor is part of the
// admission charge — the stream never leases more tensor bytes than the
// governor was charged for, and a floored budget that no longer fits is
// a 413, not a quiet overrun.
func TestStreamBudgetDecidedOnce(t *testing.T) {
	req := RunRequest{Dataset: "nell2", Kernel: "Mttkrp", Format: "COO"}
	cfg := Config{NNZ: 100000, MemBudget: 1 << 20}
	s, ts := newTestDaemon(t, cfg)

	p, err := s.resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	st := s.newStreamExec(p)
	floor := ooc.SpoolMinBudget(p.entry.Order(), cfg.NNZ)
	if floor <= s.gov.Budget()/4 {
		t.Fatalf("configuration does not exercise the floor: 4·tile %d <= budget/4 %d", floor, s.gov.Budget()/4)
	}
	admitted := st.cost(s, p)
	operands := admitted - st.budget

	status, body := postRun(t, ts.URL, req, "floored")
	if status != http.StatusOK {
		t.Fatalf("HTTP %d, want a streamed 200: %s", status, body)
	}
	resp := decodeRun(t, body)
	if resp.OOC == nil || resp.OOC.Budget != admitted-operands {
		t.Fatalf("stream ran under %+v, want the admitted stream share %d (charge %d - operands %d)",
			resp.OOC, admitted-operands, admitted, operands)
	}
	if resp.OOC.PeakBytes > resp.OOC.Budget {
		t.Fatalf("peak %d over budget %d", resp.OOC.PeakBytes, resp.OOC.Budget)
	}

	// 900000 bytes fit a quarter-share window plus operands, but not
	// the window the tiles need: the honest answer is 413.
	cfg.MemBudget = 900000
	_, ts2 := newTestDaemon(t, cfg)
	status, body = postRun(t, ts2.URL, req, "floored")
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("floored stream over budget: HTTP %d, want 413: %s", status, body)
	}
}

// TestResolveRejectsBeforeAdmission: every request-level error is
// answered by resolve with its own status — under a 1-byte budget,
// where anything that reached the cost model or the governor would be a
// 413 — and leaves nothing cached and nothing admitted.
func TestResolveRejectsBeforeAdmission(t *testing.T) {
	s, ts := newTestDaemon(t, Config{MemBudget: 1})
	cases := []struct {
		name   string
		req    RunRequest
		status int
		typ    string
	}{
		{"unknown kernel", RunRequest{Dataset: "nell2", Kernel: "Conv2D", Format: "COO"}, 400, "bad-request"},
		{"unknown format", RunRequest{Dataset: "nell2", Kernel: "Tew", Format: "CSR"}, 400, "bad-request"},
		{"unknown backend", RunRequest{Dataset: "nell2", Kernel: "Tew", Format: "COO", Backend: "tpu"}, 400, "bad-request"},
		{"unknown dataset", RunRequest{Dataset: "nope", Kernel: "Tew", Format: "COO"}, 404, "not-found"},
		{"unregistered cell", RunRequest{Dataset: "nell2", Kernel: "Tew", Format: "CSF"}, 404, "unsupported"},
		{"negative ranks", RunRequest{Dataset: "nell2", Kernel: "Mttkrp", Format: "COO", Ranks: -1}, 400, "bad-request"},
		{"too many ranks", RunRequest{Dataset: "nell2", Kernel: "Mttkrp", Format: "COO", Ranks: 1000}, 400, "bad-request"},
		{"dist on CSF", RunRequest{Dataset: "nell2", Kernel: "Mttkrp", Format: "CSF", Ranks: 2}, 400, "bad-request"},
		{"dist Tew", RunRequest{Dataset: "nell2", Kernel: "Tew", Format: "COO", Ranks: 2}, 400, "bad-request"},
	}
	for _, tc := range cases {
		if _, err := s.resolve(tc.req); err == nil {
			t.Errorf("%s: resolve accepted the request", tc.name)
		}
		status, body := postRun(t, ts.URL, tc.req, "")
		if status != tc.status {
			t.Errorf("%s: HTTP %d, want %d: %s", tc.name, status, tc.status, body)
			continue
		}
		if eb := decodeError(t, body); eb.Type != tc.typ {
			t.Errorf("%s: error type %q, want %q", tc.name, eb.Type, tc.typ)
		}
	}
	if n := s.cache.len(); n != 0 {
		t.Errorf("rejected requests left %d cache entries", n)
	}
	if b := s.gov.BytesInflight(); b != 0 {
		t.Errorf("rejected requests left %d bytes admitted", b)
	}
}

// TestTimeoutBoundsEveryExecutor: Config.Timeout is the per-trial
// deadline of a distributed run and of a rerouted stream exactly as of
// an in-core trial.
func TestTimeoutBoundsEveryExecutor(t *testing.T) {
	streamed, cfg := streamedRequest(t, Config{Timeout: time.Nanosecond})
	_, small := newTestDaemon(t, cfg)
	_, roomy := newTestDaemon(t, Config{Timeout: time.Nanosecond})
	cases := []struct {
		name string
		url  string
		req  RunRequest
	}{
		{"in-core", roomy.URL, RunRequest{Dataset: "nell2", Kernel: "Ttv", Format: "COO"}},
		{"dist", roomy.URL, RunRequest{Dataset: "nell2", Kernel: "Mttkrp", Format: "COO", Ranks: 2}},
		{"stream", small.URL, streamed},
	}
	for _, tc := range cases {
		status, body := postRun(t, tc.url, tc.req, "")
		if status != http.StatusGatewayTimeout {
			t.Errorf("%s: HTTP %d, want 504: %s", tc.name, status, body)
			continue
		}
		if eb := decodeError(t, body); eb.Type != "deadline" {
			t.Errorf("%s: error type %q, want deadline", tc.name, eb.Type)
		}
	}
}

// TestStreamOperandsMatchWorkbench: the stream executor's dense
// operands are the Workbench's, element for element, so a streamed
// response is comparable with an in-core run of the same request.
func TestStreamOperandsMatchWorkbench(t *testing.T) {
	e, err := dataset.ByID("nell2")
	if err != nil {
		t.Fatal(err)
	}
	x, err := dataset.Materialize(e, 1500, 42)
	if err != nil {
		t.Fatal(err)
	}
	const r = 8
	wb := kernelreg.NewWorkbench(x, kernelreg.Config{R: r})
	tr, size, err := ooc.Spool(x)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	oe := &oocEntry{tr: tr, fileBytes: size, vecs: make(map[int]tensor.Vector)}

	want, got := wb.Mats(), oe.factorMats(r)
	if len(got) != len(want) {
		t.Fatalf("%d factor matrices, want %d", len(got), len(want))
	}
	for n := range want {
		if got[n].Rows != want[n].Rows || got[n].Cols != want[n].Cols {
			t.Fatalf("factor %d is %dx%d, want %dx%d", n, got[n].Rows, got[n].Cols, want[n].Rows, want[n].Cols)
		}
		for i, v := range want[n].Data {
			if got[n].Data[i] != v {
				t.Fatalf("factor %d element %d = %v, want %v", n, i, got[n].Data[i], v)
			}
		}
	}
	for mode := 0; mode < x.Order(); mode++ {
		want, got := wb.Vec(mode), oe.vec(mode)
		if len(got) != len(want) {
			t.Fatalf("mode-%d vector has %d elements, want %d", mode, len(got), len(want))
		}
		for i, v := range want {
			if got[i] != v {
				t.Fatalf("mode-%d vector element %d = %v, want %v", mode, i, got[i], v)
			}
		}
	}
}

// TestFinishRejectsNonFiniteOutput: a verified output holding a NaN or
// an infinity — which dist's path never scans — must fail the request as
// non-finite (422), not report a deviation: the comparison reads it as
// +Inf, which JSON cannot encode in Deviation.
func TestFinishRejectsNonFiniteOutput(t *testing.T) {
	x := tensor.NewCOO([]tensor.Index{3, 4}, 3)
	x.Append([]tensor.Index{0, 1}, 1)
	x.Append([]tensor.Index{2, 3}, 2)
	x.Append([]tensor.Index{1, 0}, 3)
	wb := kernelreg.NewWorkbench(x, kernelreg.DefaultConfig())
	p := &plan{kernel: roofline.Tew, opts: runOpts{verify: true}}
	ctx := context.Background()
	ref, err := wb.Reference(ctx, roofline.Tew, 0)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := p.finish(ctx, &RunResponse{}, 1, wb, func() kernelreg.Canon { return ref })
	if err != nil || resp.Deviation == nil || *resp.Deviation != 0 {
		t.Fatalf("the reference against itself: response %+v, error %v; want deviation 0", resp, err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		y := x.Clone()
		y.Vals[1] = tensor.Value(bad)
		_, err := p.finish(ctx, &RunResponse{}, 1, wb, func() kernelreg.Canon { return kernelreg.CanonOf(y) })
		if !errors.Is(err, resilience.ErrNonFinite) {
			t.Fatalf("output holding %v: error %v, want one wrapping ErrNonFinite", bad, err)
		}
		if status, kind := statusOf(err); status != http.StatusUnprocessableEntity || kind != "non-finite" {
			t.Fatalf("output holding %v: HTTP %d %q, want 422 non-finite", bad, status, kind)
		}
	}
}
