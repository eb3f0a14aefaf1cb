package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/kernelreg"
	"repro/internal/serve"
)

// requestsPerClient is how many requests each client sends per round:
// three passes over the eight-kind mix.
const requestsPerClient = 24

// requestKind is one entry of the fixed daemon traffic mix.
type requestKind struct {
	name string
	req  serve.RunRequest
	body []byte // req, encoded once
}

// requestMix is the hot-path mix: eight (kernel, format, mode) kinds
// covering every kernel, both flat formats and the CSF tree. lastMode is
// the service tensor's highest mode.
func requestMix(dataset string, lastMode int) ([]requestKind, error) {
	reqs := []serve.RunRequest{
		{Kernel: "Ts", Format: "COO"},
		{Kernel: "Tew", Format: "HiCOO"},
		{Kernel: "Ttv", Format: "COO", Mode: 0},
		{Kernel: "Ttv", Format: "CSF", Mode: 1},
		{Kernel: "Ttm", Format: "HiCOO", Mode: 0},
		{Kernel: "Mttkrp", Format: "COO", Mode: 1},
		{Kernel: "Mttkrp", Format: "HiCOO", Mode: lastMode},
		{Kernel: "Mttkrp", Format: "CSF", Mode: 0},
	}
	kinds := make([]requestKind, len(reqs))
	for i, r := range reqs {
		r.Dataset = dataset
		body, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		kinds[i] = requestKind{fmt.Sprintf("%s/%s/m%d", r.Kernel, r.Format, r.Mode), r, body}
	}
	return kinds, nil
}

// hotStats collects every request of the run (guarded by mu: clients
// append concurrently).
type hotStats struct {
	mu       sync.Mutex
	latMs    []float64 // client-side latency of every successful request
	echoMs   []float64 // latency of the bare echo request sent just before it
	overMs   []float64 // latency minus the response's elapsedSec
	requests int
	failed   int
	busyS    float64 // wall time the closed loop spent sending
}

// echoPath is the bench-owned handler mounted beside the daemon: it
// reads the request body and answers with a fixed small JSON object. It
// is the frozen reference of the daemon metric: the same client, server
// and loopback stack with none of the program's work behind it.
const echoPath = "/bench-echo"

func echo(w http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body) // a short read only shortens the reference
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(`{"ok":true}` + "\n"))
}

// roundTrip posts body to path and returns the client-side latency and
// the response body; a non-200 status is an error.
func (s *state) roundTrip(client int, path string, body []byte) (time.Duration, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, s.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Pasta-Client", fmt.Sprintf("bench-%d", client))
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return lat, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, data)
	}
	return lat, data, nil
}

// post sends one /run request and returns the client-side latency and
// the decoded response.
func (s *state) post(client int, body []byte) (time.Duration, *serve.RunResponse, error) {
	lat, data, err := s.roundTrip(client, "/run", body)
	if err != nil {
		return lat, nil, err
	}
	var rr serve.RunResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		return lat, nil, err
	}
	return lat, &rr, nil
}

// startDaemon mounts an in-process serve.Server behind httptest, sends
// one request of each kind to warm its caches (the first is the cold
// request: it loads the service file and prepares an instance). It
// returns the cold request's latency.
func (s *state) startDaemon(dataset string) (coldMs float64, err error) {
	n := threads()
	daemon := serve.New(serve.Config{NNZ: s.svc.NNZ(), Seed: s.seed + 1, Bench: kernelreg.DefaultConfig()})
	mux := http.NewServeMux()
	mux.Handle("/", daemon.Handler())
	mux.HandleFunc(echoPath, echo)
	s.srv = httptest.NewServer(mux)
	s.client = &http.Client{
		Transport: &http.Transport{MaxIdleConns: 2 * n, MaxIdleConnsPerHost: 2 * n},
		Timeout:   60 * time.Second,
	}
	if s.kinds, err = requestMix(dataset, s.svc.Order()-1); err != nil {
		return 0, err
	}
	for i, k := range s.kinds {
		lat, _, err := s.post(0, k.body)
		if err != nil {
			return 0, fmt.Errorf("warm daemon with %s: %w", k.name, err)
		}
		if i == 0 {
			coldMs = lat.Seconds() * 1e3
		}
	}

	s.hot = &hotStats{}
	return coldMs, nil
}

// hotRound is the daemon cell of the traced run, a closed loop: each of
// the THREADS clients sends its next request only when the previous one
// has been answered, alternating a bare echo request (the paired
// reference) with a /run request. Clients start at different points of
// the mix so they do not march in step.
func (s *state) hotRound() (int, error) {
	n := threads()
	var wg sync.WaitGroup
	failed := 0
	var firstErr error
	start := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < requestsPerClient; i++ {
				k := s.kinds[(c*len(s.kinds)/n+i)%len(s.kinds)]
				echoLat, _, err := s.roundTrip(c, echoPath, k.body)
				var lat time.Duration
				var rr *serve.RunResponse
				if err == nil {
					lat, rr, err = s.post(c, k.body)
				}
				if err != nil {
					s.hot.mu.Lock()
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("%s: %w", k.name, err)
					}
					s.hot.mu.Unlock()
					continue
				}
				ms := lat.Seconds() * 1e3
				s.hot.mu.Lock()
				s.hot.latMs = append(s.hot.latMs, ms)
				s.hot.echoMs = append(s.hot.echoMs, echoLat.Seconds()*1e3)
				s.hot.overMs = append(s.hot.overMs, ms-rr.ElapsedSec*1e3)
				s.hot.mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	s.hot.mu.Lock()
	s.hot.busyS += time.Since(start).Seconds()
	s.hot.requests += 2 * n * requestsPerClient
	s.hot.failed += failed
	s.hot.mu.Unlock()
	return failed, firstErr
}
