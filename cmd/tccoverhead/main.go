// Command tccoverhead is the observability overhead gate: it measures
// what the profiler and the live monitor cost on top of tracing a
// chain16 allreduce, writes the result as JSON and exits nonzero when
// either costs more than 5% CPU over tracer-only.
//
// Usage:
//
//	tccoverhead [-out BENCH_overhead.json]
//
// Simulator throughput is measured by the repository benchmark in
// bench/; the simulated answers are pinned by tccfig's golden file.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	out := flag.String("out", "", "JSON output path (default stdout)")
	flag.Parse()
	runOverheadBench(*out)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tccoverhead:", err)
		os.Exit(1)
	}
}
