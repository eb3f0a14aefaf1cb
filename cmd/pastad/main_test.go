package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/resilience"
)

// logBuffer is a goroutine-safe stdout the test can poll while run is
// still writing to it.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor polls cond until it holds or d passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-mem-budget", "lots"},
		{"-addr", "127.0.0.1:0", "stray"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, nil, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("run(%q) said nothing on stderr", args)
		}
		if strings.Contains(stdout.String(), "listening") {
			t.Errorf("run(%q) started serving: %s", args, stdout.String())
		}
	}
}

const runBody = `{"dataset":"nell2","kernel":"Ts","format":"COO","backend":"omp"}`

func post(addr string) (int, error) {
	resp, err := http.Post("http://"+addr+"/run", "application/json", strings.NewReader(runBody))
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// TestSigtermDrains drives the daemon's whole life through run: serve,
// SIGTERM with a request in flight, drain. The in-flight request is
// answered, a request arriving during the drain is turned away 503 with
// a Retry-After, and run returns 0 well inside -drain-grace.
func TestSigtermDrains(t *testing.T) {
	const grace = 10 * time.Second
	stdout, stderr := &logBuffer{}, &logBuffer{}
	signals := make(chan os.Signal, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-nnz", "1500", "-drain-grace", grace.String()},
			signals, stdout, stderr)
	}()
	listening := regexp.MustCompile(`listening on http://(\S+)`)
	waitFor(t, 5*time.Second, "the ready banner", func() bool { return listening.MatchString(stdout.String()) })
	addr := listening.FindStringSubmatch(stdout.String())[1]

	// Warm, so the stall below lands in the trial, not in materialize.
	if status, err := post(addr); err != nil || status != http.StatusOK {
		t.Fatalf("warm-up: HTTP %d, %v", status, err)
	}
	chaosCtx, chaosCancel := context.WithCancel(context.Background())
	defer chaosCancel()
	inj := resilience.NewInjector(23)
	inj.Install()
	defer inj.Uninstall()
	inj.Arm(chaosCtx, resilience.FaultStall, 0, 500*time.Millisecond)
	defer inj.Disarm()

	inflight := make(chan int, 1)
	go func() {
		status, _ := post(addr)
		inflight <- status
	}()
	waitFor(t, 5*time.Second, "the request to be in flight", func() bool { return inj.Injected() > 0 })

	// The drain closes the listener, so the late request needs its
	// connection before the signal: accepted, nothing sent yet.
	late, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()

	signals <- syscall.SIGTERM
	waitFor(t, 5*time.Second, "the drain banner", func() bool { return strings.Contains(stdout.String(), "draining") })

	fmt.Fprintf(late, "POST /run HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		addr, len(runBody), runBody)
	resp, err := http.ReadResponse(bufio.NewReader(late), nil)
	if err != nil {
		t.Fatalf("request during the drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("request during the drain: HTTP %d, Retry-After %q; want 503 with a hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	chaosCancel() // the drain was observed with work in flight; let that work finish
	if status := <-inflight; status != http.StatusOK {
		t.Fatalf("in-flight request: HTTP %d, want 200", status)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("run = %d after SIGTERM, want 0 (stderr: %s)", code, stderr.String())
		}
	case <-time.After(grace):
		t.Fatalf("run still draining after %v", grace)
	}
	if !strings.Contains(stdout.String(), "pastad: drained (") {
		t.Fatalf("no drain summary on stdout:\n%s", stdout.String())
	}
}
