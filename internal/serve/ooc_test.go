package serve

import (
	"net/http"
	"testing"

	"repro/internal/obs"
)

// TestOverBudgetStreamsInsteadOf413: a streamable request whose in-core
// working set exceeds the daemon budget is rerouted to the out-of-core
// tile stream and succeeds, with the streaming stats in the response
// and the peak leased bytes under the stream budget.
func TestOverBudgetStreamsInsteadOf413(t *testing.T) {
	// Size the budget one byte under the in-core cost so the admission
	// gate rejects it over-budget, while the (much smaller) streaming
	// working set still fits.
	incore, err := requestCost(New(Config{NNZ: 1500}), RunRequest{Dataset: "nell2", Kernel: "Mttkrp", Format: "COO"})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestDaemon(t, Config{NNZ: 1500, MemBudget: incore - 1})
	reroutes := obs.GetCounter("daemon.ooc_reroutes")
	before := reroutes.Value()

	status, body := postRun(t, ts.URL,
		RunRequest{Dataset: "nell2", Kernel: "Mttkrp", Format: "COO", Mode: 1}, "streamer")
	if status != http.StatusOK {
		t.Fatalf("over-budget streamable request: HTTP %d, want 200: %s", status, body)
	}
	resp := decodeRun(t, body)
	if resp.Backend != "ooc" || resp.Variant != "Mttkrp/COO@ooc" {
		t.Fatalf("rerouted onto %q/%q, want the ooc variant: %s", resp.Backend, resp.Variant, body)
	}
	if resp.OOC == nil {
		t.Fatalf("response lacks the ooc section: %s", body)
	}
	st := resp.OOC
	if st.Tiles < 8 || st.Evictions != st.Tiles || st.BytesRead <= 0 {
		t.Fatalf("implausible stream stats %+v", st)
	}
	if st.PeakBytes <= 0 || st.PeakBytes > st.Budget {
		t.Fatalf("peak %d outside (0, budget %d]", st.PeakBytes, st.Budget)
	}
	if st.PrefetchHits+st.PrefetchStalls != st.Tiles {
		t.Fatalf("hits %d + stalls %d != tiles %d", st.PrefetchHits, st.PrefetchStalls, st.Tiles)
	}
	if st.FileBytes <= 0 {
		t.Fatalf("spooled file size %d", st.FileBytes)
	}
	if reroutes.Value() <= before {
		t.Fatal("reroute did not bump daemon.ooc_reroutes")
	}

	// Ttv's in-core footprint is smaller (no factor matrices), so it
	// needs its own just-too-small budget to take the streaming path.
	ttvIncore, err := requestCost(New(Config{NNZ: 1500}), RunRequest{Dataset: "nell2", Kernel: "Ttv", Format: "COO"})
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestDaemon(t, Config{NNZ: 1500, MemBudget: ttvIncore - 1})
	status, body = postRun(t, ts2.URL,
		RunRequest{Dataset: "nell2", Kernel: "Ttv", Format: "COO"}, "streamer")
	if status != http.StatusOK {
		t.Fatalf("over-budget Ttv: HTTP %d, want 200: %s", status, body)
	}
	if resp = decodeRun(t, body); resp.Backend != "ooc" || resp.OOC == nil {
		t.Fatalf("Ttv not streamed: %s", body)
	}

	// A kernel with no streaming body keeps the honest 413, at a budget
	// just below its own in-core footprint.
	ttmIncore, err := requestCost(New(Config{NNZ: 1500}), RunRequest{Dataset: "nell2", Kernel: "Ttm", Format: "COO"})
	if err != nil {
		t.Fatal(err)
	}
	_, ts3 := newTestDaemon(t, Config{NNZ: 1500, MemBudget: ttmIncore - 1})
	status, body = postRun(t, ts3.URL,
		RunRequest{Dataset: "nell2", Kernel: "Ttm", Format: "COO"}, "streamer")
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget Ttm: HTTP %d, want 413: %s", status, body)
	}
	if eb := decodeError(t, body); eb.Type != "over-budget" {
		t.Fatalf("error type %q, want over-budget: %s", eb.Type, body)
	}

	// An explicit device ask is never silently moved onto the stream.
	status, body = postRun(t, ts.URL,
		RunRequest{Dataset: "nell2", Kernel: "Mttkrp", Format: "COO", Backend: "gpu"}, "streamer")
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget gpu request: HTTP %d, want 413: %s", status, body)
	}
}

// TestExplicitOOCBackend: backend "ooc" resolves to the registry's
// streaming variant through the normal in-core daemon path (workbench,
// instance cache, degradation ladder) — it verifies like any variant.
func TestExplicitOOCBackend(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	status, body := postRun(t, ts.URL,
		RunRequest{Dataset: "r2", Kernel: "Mttkrp", Format: "COO", Backend: "ooc", Mode: 0, Verify: true}, "c")
	if status != http.StatusOK {
		t.Fatalf("HTTP %d, want 200: %s", status, body)
	}
	resp := decodeRun(t, body)
	if resp.Variant != "Mttkrp/COO@ooc" || resp.Backend != "ooc" {
		t.Fatalf("variant %q backend %q, want the ooc variant", resp.Variant, resp.Backend)
	}
	if resp.Deviation == nil || *resp.Deviation > 2e-3 {
		t.Fatalf("deviation %v, want <= 2e-3", resp.Deviation)
	}

	status, body = postRun(t, ts.URL,
		RunRequest{Dataset: "r2", Kernel: "Ttv", Format: "COO", Backend: "ooc", Mode: 2, Verify: true}, "c")
	if status != http.StatusOK {
		t.Fatalf("Ttv HTTP %d, want 200: %s", status, body)
	}
	if resp = decodeRun(t, body); resp.Deviation == nil || *resp.Deviation > 2e-3 {
		t.Fatalf("Ttv deviation %v, want <= 2e-3", resp.Deviation)
	}

	// The streaming class covers only the reduction kernels that can
	// accumulate tile-by-tile; the rest 404 like any unregistered cell.
	status, body = postRun(t, ts.URL,
		RunRequest{Dataset: "r2", Kernel: "Tew", Format: "COO", Backend: "ooc"}, "c")
	if status != http.StatusNotFound {
		t.Fatalf("Tew@ooc HTTP %d, want 404: %s", status, body)
	}
}
