// Command pastad is the PASTA benchmark daemon: it keeps datasets
// materialized and kernel instances prepared across requests, so many
// clients can probe kernel×format×backend performance over HTTP/JSON
// without paying preprocessing cost per call.
//
//	pastad -addr :7117
//	curl -s localhost:7117/variants
//	curl -s -X POST localhost:7117/run -d '{"dataset":"r2","kernel":"Mttkrp","format":"HiCOO"}'
//	curl -s localhost:7117/metrics
//
// See cmd/pastad/README.md for the full endpoint reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], sig, os.Stdout, os.Stderr))
}

// run is the whole daemon behind main: parse args, serve until a signal
// arrives on signals (or the listener fails), drain, and return the
// process exit code — 2 for a usage error, 1 for a failed bind, serve
// or drain, 0 for a clean drain.
func run(args []string, signals <-chan os.Signal, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pastad", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":7117", "listen address")
		nnz         = fs.Int("nnz", 5000, "stand-in dataset non-zero count (real tensors from PASTA_TENSOR_DIR always win)")
		seed        = fs.Int64("seed", 42, "dataset generation seed")
		rank        = fs.Int("r", 0, "factor-matrix rank R (0 = paper default)")
		timeout     = fs.Duration("timeout", 30*time.Second, "per-trial deadline: bounds one kernel execution, whichever executor runs it")
		shards      = fs.Int("shards", 8, "LRU cache shard count")
		cacheCap    = fs.Int("cache-cap", 32, "LRU cache capacity per shard")
		maxInflight = fs.Int("max-inflight", 0, "max concurrently executing requests (0 = 2×GOMAXPROCS)")
		quota       = fs.Int64("quota", 0, "per-client admitted requests per quota window (0 = unlimited)")
		quotaWindow = fs.Duration("quota-window", time.Minute, "quota accounting window (0 = lifetime budget)")
		memBudget   = fs.String("mem-budget", "", `daemon-wide working-set budget for admission, e.g. "512MiB" ("" = half the memory limit / system RAM)`)
		admitWait   = fs.Duration("admit-wait", 100*time.Millisecond, "how long an over-capacity request waits at the admission gate before it is shed 503")
		drainGrace  = fs.Duration("drain-grace", 10*time.Second, "graceful-shutdown bound: how long to wait for in-flight requests on SIGTERM")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h is not a usage error
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "pastad: unexpected arguments %v\n", fs.Args())
		fs.Usage()
		return 2
	}

	var budget int64
	if *memBudget != "" {
		var err error
		budget, err = govern.ParseBytes(*memBudget)
		if err != nil {
			fmt.Fprintln(stderr, "pastad: -mem-budget:", err)
			return 2
		}
	}

	// The daemon's own counters flow through the obs registry; /metrics
	// reads the same snapshot -counters prints in pastabench.
	obs.EnableCounters(true)

	cfg := serve.Config{
		NNZ:         *nnz,
		Seed:        *seed,
		CacheShards: *shards,
		ShardCap:    *cacheCap,
		MaxInflight: *maxInflight,
		QuotaLimit:  *quota,
		QuotaWindow: *quotaWindow,
		Timeout:     *timeout,
		MemBudget:   budget,
		AdmitWait:   *admitWait,
		DrainGrace:  *drainGrace,
	}
	if *rank > 0 {
		cfg.Bench.R = *rank
	}
	srv := serve.New(cfg)

	// StartHTTP binds synchronously: a bad -addr fails here, before the
	// ready banner, instead of racing a background goroutine.
	hs, err := serve.StartHTTP(*addr, srv.Handler())
	if err != nil {
		fmt.Fprintln(stderr, "pastad:", err)
		return 1
	}
	fmt.Fprintf(stdout, "pastad listening on http://%s (endpoints: /healthz /variants /metrics /run)\n", hs.Addr())
	fmt.Fprintf(stdout, "pastad: memory budget %d bytes, drain grace %s\n", srv.Governor().Budget(), *drainGrace)

	select {
	case s := <-signals:
		fmt.Fprintf(stdout, "pastad: %v, draining (grace %s)\n", s, *drainGrace)
		return drain(srv, hs, *drainGrace, stdout, stderr)
	case err := <-hs.Err():
		if err != nil {
			fmt.Fprintln(stderr, "pastad:", err)
			return 1
		}
	}
	return 0
}

// drain runs the graceful-shutdown sequence under one grace budget:
//
//  1. stop admitting — new requests and flight joiners get 503 +
//     Retry-After, so a load balancer moves on immediately;
//  2. close the listener and wait for in-flight HTTP exchanges
//     (http.Server.Shutdown);
//  3. wait for every admitted lease to release (leaders finishing
//     their trials) via the governor;
//  4. flush a final counter summary so the last scrape interval's
//     events aren't lost with the process.
//
// Returns the process exit code: 0 for a clean drain, 1 when the grace
// expired with work still in flight (the remains are reported).
func drain(srv *serve.Server, hs *serve.HTTPServer, grace time.Duration, stdout, stderr io.Writer) int {
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()

	code := 0
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "pastad: http shutdown:", err)
		hs.Close() // hard-close lingering connections; the drain below still waits for leases
		code = 1
	}
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(stderr, "pastad: drain:", err)
		code = 1
	}

	snap := obs.CounterSnapshot()
	fmt.Fprintf(stdout, "pastad: drained (requests=%d shed=%d cancelled=%d errors=%d)\n",
		snap["daemon.requests"], snap["govern.shed"], snap["govern.cancelled"], snap["daemon.errors"])
	return code
}
