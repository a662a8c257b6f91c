// Command bench is the repository's benchmark: five workloads, each
// loading a different layer of the simulator, timed from outside the
// program through the root tccluster API.
//
//	go run . [-workload NAME] [-seed N] [-seconds S] [-trace]
//
// An untraced run prints the end-to-end metrics (host throughput, set-up
// time, live heap); a traced run (-trace) prints the per-layer ledger:
// CPU profile samples charged to layers, read-only counters, and the
// simulation profiler's phase budget. Both check the simulated outputs:
// against golden.json for the golden seed at full size, and against
// invariants otherwise. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
// Exit status: 0 on success; 1 when an output check fails or a batch
// cannot complete (the JSON line still prints, with correct false); 2
// on bad usage or an internal error, with no JSON line.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"runtime"

	"repro/internal/experiments"
)

//go:embed golden.json
var goldenJSON []byte

// goldenFile is the committed fingerprint of the golden seed.
type goldenFile struct {
	Seed      uint64                       `json:"seed"`
	Paper     map[string]string            `json:"paper"`
	Workloads map[string]map[string]string `json:"workloads"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr)) }

// normalizeTrace rewrites "-trace 0" and "-trace 1" to the "-trace=0"
// form the flag package needs for a boolean flag with a separate value.
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	var golden goldenFile
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fmt.Fprintf(stderr, "bench: golden.json: %v\n", err)
		return 2
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all)")
	o := options{}
	fs.Uint64Var(&o.seed, "seed", golden.Seed, "seed of the payloads, inputs and serve streams")
	fs.Float64Var(&o.seconds, "seconds", 20, "measure each workload for this many seconds of whole batches")
	fs.BoolVar(&o.trace, "trace", false, "report the per-layer ledger instead of the end-to-end metrics")
	fs.Float64Var(&o.scale, "scale", 1, "multiply every batch size (tests only; the golden check needs 1)")
	printGolden := fs.Bool("print-golden", false, "print the golden fingerprint of -seed and exit")
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.scale <= 0 || o.seconds < 0 {
		fmt.Fprintf(stderr, "bench: bad arguments %q\n", fs.Args())
		return 2
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}
	if *printGolden {
		return writeGolden(o, stdout, stderr)
	}

	fmt.Fprintf(stdout, "# %s NumCPU=%d (serial batches at GOMAXPROCS=1, 2-worker at 2) seed=%d seconds=%g trace=%v scale=%g\n",
		runtime.Version(), runtime.NumCPU(), o.seed, o.seconds, o.trace, o.scale)
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	var problems []string
	paper, err := paperPoints()
	if err != nil {
		fmt.Fprintf(stderr, "bench: paper points: %v\n", err)
		return 2
	}
	paperOK := maps.Equal(paper, golden.Paper)
	if !paperOK {
		problems = append(problems, fmt.Sprintf("paper points %v, golden %v", paper, golden.Paper))
	}
	for _, w := range selected {
		r, err := measure(w, o)
		if err != nil {
			// A batch that cannot complete is a failed output check.
			fmt.Fprintf(stderr, "bench: %v\n", err)
			res.Correct = false
			res.Attempted++
			res.Failed++
			continue
		}
		var want map[string]string
		if o.seed == golden.Seed && o.scale == 1 {
			want = golden.Workloads[w.name]
		}
		attempted, failed := r.attempted(), r.failed()
		err = r.check(want)
		if err != nil {
			problems = append(problems, err.Error())
		}
		if err != nil || !paperOK {
			failed = attempted // a wrong output fails every op of the workload
		}
		res.Attempted += attempted
		res.Failed += failed

		ms := r.endToEnd()
		if o.trace {
			if ms, err = r.perLayer(); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 2
			}
		}
		fmt.Fprintf(stdout, "# %s: %d batches of %d %ss\n", w.name, len(r.batches), r.batches[0].out.ops, w.opName)
		for _, m := range ms {
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				fmt.Fprintf(stderr, "bench: %s %s is %v\n", w.name, m.name, m.value)
				return 2
			}
			fmt.Fprintf(stdout, "%-16s %-28s %18.6f %s\n", w.name, m.name, m.value, m.unit)
			key := m.name
			if len(selected) > 1 {
				key = w.name + "/" + m.name
			}
			res.Metrics[key] = metricValue{m.value, m.unit}
		}
	}
	for _, p := range problems {
		fmt.Fprintf(stderr, "bench: output check failed: %s\n", p)
	}
	res.Correct = res.Correct && len(problems) == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// paperPoints regenerates the paper's headline numbers: the Fig. 7 half
// round trip and the Fig. 6 weak/ordered bandwidths, all at 64 B.
func paperPoints() (map[string]string, error) {
	f7, err := experiments.Fig7Latency([]int{64})
	if err != nil {
		return nil, err
	}
	f6, err := experiments.Fig6Bandwidth([]int{64})
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, s := range f7.Series {
		if s.Name == "TCCluster" {
			y, _ := s.YAt(64)
			out["fig7_half_rtt_ns_64B"] = fmtF(y)
		}
	}
	for _, s := range f6.Series {
		y, _ := s.YAt(64)
		switch s.Name {
		case "TCC-weak":
			out["fig6_weak_mb_per_s_64B"] = fmtF(y)
		case "TCC-ordered":
			out["fig6_ordered_mb_per_s_64B"] = fmtF(y)
		}
	}
	return out, nil
}

// writeGolden runs one cycle of every workload at full size and prints
// the fingerprint as golden.json content.
func writeGolden(o options, stdout, stderr io.Writer) int {
	o.seconds, o.scale, o.trace = 0, 1, false
	g := goldenFile{Seed: o.seed, Workloads: map[string]map[string]string{}}
	var err error
	if g.Paper, err = paperPoints(); err != nil {
		fmt.Fprintf(stderr, "bench: paper points: %v\n", err)
		return 2
	}
	for _, w := range workloads {
		r, err := measure(w, o)
		if err == nil {
			err = r.check(nil)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		g.Workloads[w.name] = r.batches[0].out.outputs
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}
