// Command compare holds two benchmark result files (as written by
// `go run ./bench -all`) against each other under the bounds of
// BENCHMARK.json:
//
//	go run ./bench/compare a.json b.json
//
// For every (workload, end-to-end metric) it prints each side's median
// and quartile spread, B/A with its base, and a verdict: improved,
// unchanged, regressed, or unresolved (spread wider than the bound and
// the two sides' runs interleave). It exits 1 if any pair regressed.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/bench/record"
)

func main() {
	spec := flag.String("benchmark", "BENCHMARK.json", "the BENCHMARK.json that fixes the bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-benchmark BENCHMARK.json] a.json b.json")
		os.Exit(2)
	}
	rows, err := compare(*spec, flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	fmt.Print(record.Format(rows))
	for _, r := range rows {
		if r.Verdict == record.Regressed {
			os.Exit(1)
		}
	}
}

func compare(specPath, aPath, bPath string) ([]record.Row, error) {
	specs, err := record.Specs(specPath)
	if err != nil {
		return nil, err
	}
	a, err := record.Load(aPath)
	if err != nil {
		return nil, err
	}
	b, err := record.Load(bPath)
	if err != nil {
		return nil, err
	}
	return record.Compare(a.Runs, b.Runs, specs), nil
}
