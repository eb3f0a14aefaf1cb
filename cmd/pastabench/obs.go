package main

import (
	"fmt"
	_ "net/http/pprof" // registered on the default mux for -pprof
	"os"
	"runtime/pprof"

	"repro/internal/obs"
	"repro/internal/serve"
)

// obsSession owns the observability side of one pastabench invocation:
// the tracer feeding -trace, the counter registry feeding -counters,
// the CPU profile behind -profile and the net/http/pprof server behind
// -pprof. It is created before the first experiment runs and finished
// after the last.
type obsSession struct {
	o      options
	tracer *obs.Tracer
	cpuOut *os.File
	pprof  *serve.HTTPServer
}

// session is the process-wide observability state; nil until -trace,
// -counters, -profile or -pprof asks for one.
var session *obsSession

// startObs validates the observability flags and arms whatever they
// request. It returns an error instead of exiting so main owns the
// usage message.
func startObs(o options) error {
	if o.trace == "" && !o.counters && o.profile == "" && o.pprofAddr == "" {
		return nil
	}
	s := &obsSession{o: o}
	if o.trace != "" {
		var opts []obs.Option
		if o.traceBlocks {
			opts = append(opts, obs.WithBlockSpans())
		}
		s.tracer = obs.New(opts...)
		obs.Enable(s.tracer)
	}
	if o.counters {
		obs.EnableCounters(true)
	}
	if o.profile != "" {
		f, err := os.Create(o.profile)
		if err != nil {
			return fmt.Errorf("-profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-profile: %w", err)
		}
		s.cpuOut = f
	}
	if o.pprofAddr != "" {
		// Bind synchronously so a bad address fails startup instead of a
		// background goroutine printing the error after the success
		// banner (with the benchmark run silently unprofiled).
		hs, err := serve.StartHTTP(o.pprofAddr, nil)
		if err != nil {
			if s.cpuOut != nil {
				pprof.StopCPUProfile()
				s.cpuOut.Close()
			}
			return fmt.Errorf("-pprof: %w", err)
		}
		s.pprof = hs
		fmt.Printf("(pprof server on http://%s/debug/pprof/)\n", hs.Addr())
	}
	session = s
	return nil
}

// finishObs flushes every armed sink and returns the process exit code
// contribution: non-zero when a sink could not be written.
func finishObs() int {
	if session == nil {
		return 0
	}
	code := 0
	if session.pprof != nil {
		session.pprof.Close()
		// Close can win the race against the serve loop's start, which then
		// closes the listener on its way out: wait for that exit.
		for range session.pprof.Err() {
		}
	}
	if session.cpuOut != nil {
		pprof.StopCPUProfile()
		session.cpuOut.Close()
		fmt.Printf("(cpu profile written to %s)\n", session.o.profile)
	}
	if session.tracer != nil {
		obs.Disable()
		spans := session.tracer.Spans()
		if err := obs.WriteChromeTraceFile(session.o.trace, spans); err != nil {
			fmt.Fprintln(os.Stderr, "pastabench: -trace:", err)
			code = 1
		} else {
			fmt.Printf("(%d spans written to %s; open in about:tracing or ui.perfetto.dev)\n",
				len(spans), session.o.trace)
		}
	}
	if session.o.counters {
		fmt.Println("\nRuntime counters")
		fmt.Println("================")
		obs.WriteCounterSummary(os.Stdout, obs.CounterSnapshot(), true)
	}
	return code
}
