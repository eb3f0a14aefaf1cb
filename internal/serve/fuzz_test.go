package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/resilience"
)

// FuzzRunRequest feeds arbitrary bodies through the first two stages of
// POST /run, decode and resolve, and no further: nothing is priced,
// loaded or executed. Every body must give a plan bound to exactly one
// executor, or a typed error (a *badRequestError answered 400 or 404, or
// an unregistered cell), never a panic.
//
//	go test -run Fuzz -fuzz=FuzzRunRequest -fuzztime=10s ./internal/serve
func FuzzRunRequest(f *testing.F) {
	no := false
	for _, req := range []RunRequest{
		{Dataset: "nell2", Kernel: "Mttkrp", Format: "COO", Mode: 1},
		{Dataset: "nell2", Kernel: "Ttv", Format: "CSF", Mode: 1, Verify: true},
		{Dataset: "nell2", Kernel: "Mttkrp", Format: "COO", Backend: "omp", Fallback: &no},
		{Dataset: "nell2", Kernel: "Mttkrp", Format: "HiCOO", Ranks: 4, Verify: true},
		{Dataset: "nell2", Kernel: "Ttv", Format: "COO", Mode: 7, Ranks: 2},
		{Dataset: "r2", Kernel: "Ttv", Format: "COO", Backend: "ooc", Mode: 2, Verify: true},
		{Dataset: "nell2", Kernel: "Ttm", Format: "COO", Backend: "gpu"},
		{Dataset: "nell2", Kernel: "Conv2D", Format: "COO"},
		{Dataset: "nell2", Kernel: "Tew", Format: "CSR"},
		{Dataset: "nell2", Kernel: "Tew", Format: "COO", Backend: "tpu"},
		{Dataset: "nope", Kernel: "Tew", Format: "COO"},
		{Dataset: "nell2", Kernel: "Tew", Format: "CSF"},
		{Dataset: "nell2", Kernel: "Mttkrp", Format: "COO", Ranks: -1},
		{Dataset: "nell2", Kernel: "Mttkrp", Format: "COO", Ranks: 1000},
		{Dataset: "nell2", Kernel: "Tew", Format: "COO", Ranks: 2},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"dataset":"nell2","kernel":"ttv","format":"coo","backend":" OMP "}`))
	f.Add([]byte(`{"dataset":"nell2","kernel":"Ttv","format":"COO","unknown":1}`))
	f.Add([]byte(`{"dataset":`))
	f.Add([]byte(`[]`))
	s := New(Config{NNZ: 1500})
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body))
		req, _, cancel, err := decode(httptest.NewRecorder(), r)
		cancel()
		if err == nil {
			var p *plan
			if p, err = s.resolve(req); err == nil {
				e := p.exec
				if (e.inst == nil) == (e.dist == nil) || e.stream != nil {
					t.Fatalf("body %q: plan bound to %+v, want exactly one of inst and dist", body, e)
				}
				if e.dist != nil && (e.dist.ranks < 1 || e.dist.ranks > maxDistRanks) {
					t.Fatalf("body %q: %d ranks resolved", body, e.dist.ranks)
				}
				return
			}
		}
		var br *badRequestError
		switch {
		case errors.As(err, &br):
			if br.status != http.StatusBadRequest && br.status != http.StatusNotFound {
				t.Fatalf("body %q: typed error with status %d: %v", body, br.status, err)
			}
		case errors.Is(err, resilience.ErrUnsupported):
		default:
			t.Fatalf("body %q: untyped error %T: %v", body, err, err)
		}
	})
}
