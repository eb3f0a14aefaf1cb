// Command pastatrace inspects the Chrome trace_event JSON files that
// pastabench -trace and pastaverify -trace write.
//
//	pastatrace -validate trace.json   # exit non-zero when malformed
//	pastatrace -summary trace.json    # where-did-the-time-go table
//
// -validate is the structural gate CI runs on trace artifacts: every
// event must carry a name, non-negative timestamps monotone per
// (pid, tid) lane, and B/E duration events must pair up. -summary
// aggregates interval events by (category, name) with count, total,
// mean, and max durations.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind main: parse args, inspect every file,
// and return the process exit code — 2 for a usage error, 1 when a file
// is unreadable or malformed, 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pastatrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		validate = fs.Bool("validate", false, "check each file's structural invariants; exit 1 on the first violation")
		summary  = fs.Bool("summary", false, "print a per-(category, name) duration table for each file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h is not a usage error
		}
		return 2
	}
	if !*validate && !*summary {
		*validate = true // bare invocation validates
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: pastatrace [-validate] [-summary] trace.json...")
		return 2
	}
	code := 0
	for _, path := range fs.Args() {
		if err := inspect(stdout, path, *validate, *summary); err != nil {
			fmt.Fprintf(stderr, "pastatrace: %s: %v\n", path, err)
			code = 1
		}
	}
	return code
}

func inspect(w io.Writer, path string, validate, summary bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	evs, err := obs.ParseChromeTrace(data)
	if err != nil {
		return err
	}
	if validate {
		if err := obs.ValidateChromeTrace(data); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: %d events, valid\n", path, len(evs))
	}
	if summary {
		printSummary(w, path, evs)
	}
	return nil
}

// eventAgg is the -summary aggregation bucket for one (cat, name).
type eventAgg struct {
	cat, name  string
	count      int
	totalUs    float64
	maxUs      float64
	firstIndex int
}

func printSummary(w io.Writer, path string, evs []obs.TraceEvent) {
	agg := map[[2]string]*eventAgg{}
	instants := 0
	for i, ev := range evs {
		switch ev.Ph {
		case "i", "I":
			instants++
			continue
		case "X":
		default:
			continue // B/E and metadata carry no self-contained duration
		}
		k := [2]string{ev.Cat, ev.Name}
		a := agg[k]
		if a == nil {
			a = &eventAgg{cat: ev.Cat, name: ev.Name, firstIndex: i}
			agg[k] = a
		}
		a.count++
		a.totalUs += ev.Dur
		if ev.Dur > a.maxUs {
			a.maxUs = ev.Dur
		}
	}
	rows := make([]*eventAgg, 0, len(agg))
	for _, a := range agg {
		rows = append(rows, a)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].totalUs != rows[j].totalUs {
			return rows[i].totalUs > rows[j].totalUs
		}
		return rows[i].firstIndex < rows[j].firstIndex
	})
	fmt.Fprintf(w, "%s: %d events (%d instants)\n", path, len(evs), instants)
	fmt.Fprintf(w, "%-10s %-26s %8s %14s %14s %14s\n", "category", "name", "count", "total(ms)", "mean(us)", "max(us)")
	for _, a := range rows {
		fmt.Fprintf(w, "%-10s %-26s %8d %14.3f %14.1f %14.1f\n",
			a.cat, a.name, a.count, a.totalUs/1e3, a.totalUs/float64(a.count), a.maxUs)
	}
}
