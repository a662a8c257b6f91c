package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"unsafe"

	tccluster "repro"
	"repro/internal/stats"
)

// The overhead benchmark enforces the observability cost contract:
// enabling the profiler, or the live monitor, stays within
// overheadGateMaxPct of a tracer-only run of a chain16 allreduce (the
// paper-budget workload). Span emission is recorded but not gated — it
// is a debugging mode that writes one trace record per packet phase.
// BENCH_overhead.json records every configuration, and the benchmark
// exits nonzero when the gate fails so CI can run it directly.
//
// Each configuration is summarized by a low quantile
// (overheadQuantile) of all its timed rounds, pooled across trials, and
// gated on the ratio of that quantile to tracer-only's. A low quantile
// still filters out the rounds that neighbor interference inflated,
// like a minimum would, but one unusually fast tracer round cannot set
// the denominator for every configuration: it takes a twentieth of all
// rounds to move it. In five runs on a 2-CPU host, a second tracer-only
// configuration read -1.9% to +1.0% against the first by this
// statistic, and -2.7% to +4.5% by the ratio of minima.

// overheadGateMaxPct is the ceiling for each gated configuration,
// measured against tracer-only.
const overheadGateMaxPct = 5.0

// overheadQuantile is the quantile of pooled round times each
// configuration is judged by.
const overheadQuantile = 0.05

type overheadConfig struct {
	Name string `json:"name"`
	// CPUNsP05Round is the overheadQuantile of every timed round.
	CPUNsP05Round float64 `json:"cpu_ns_p05_round"`
	PctVsTracer   float64 `json:"overhead_pct_vs_tracer"`
	Gated         bool    `json:"gated"`
	// extra is added to a fresh tracer: each cluster gets its own
	// Collector so no run inherits another's buffered records.
	extra []tccluster.Option
	// rounds pools the CPU ns of every timed round across trials.
	rounds []float64
}

type overheadBench struct {
	Meta       stats.BenchMeta  `json:"meta"`
	Nodes      int              `json:"nodes"`
	Rounds     int              `json:"rounds"`
	Trials     int              `json:"trials"`
	Sweeps     int              `json:"sweeps"`
	GateMaxPct float64          `json:"gate_max_pct"`
	Configs    []overheadConfig `json:"configs"`
}

// overheadGate judges every configuration marked Gated independently
// against the ceiling; it returns nil when all pass and otherwise names
// every configuration that failed.
func overheadGate(configs []overheadConfig) error {
	var failed []string
	for _, c := range configs {
		if c.Gated && c.PctVsTracer > overheadGateMaxPct {
			failed = append(failed, fmt.Sprintf("%s %+.1f%%", c.Name, c.PctVsTracer))
		}
	}
	if len(failed) == 0 {
		return nil
	}
	return fmt.Errorf("overhead gate: %s over tracer-only exceeds the %.0f%% ceiling",
		strings.Join(failed, ", "), overheadGateMaxPct)
}

// quantile returns the q-quantile of xs by the lower nearest rank.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1))]
}

// cpuClockID is CLOCK_PROCESS_CPUTIME_ID: per-process CPU time at
// nanosecond resolution (getrusage only ticks at scheduler granularity,
// whole milliseconds — percent-scale quantization on a ~300ms region).
const cpuClockID = 2

// cpuNS returns the process's consumed CPU time in nanoseconds. The
// gate measures CPU time rather than wall time: on a shared machine,
// neighbor interference parks the process involuntarily and wall-clock
// ratios of ~100ms regions swing by whole percents, while CPU time only
// counts cycles this process actually burned.
func cpuNS() float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, cpuClockID,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		check(fmt.Errorf("overhead bench: clock_gettime: %v", errno))
	}
	return float64(ts.Nano())
}

// allreduceRounds builds a fresh chain cluster with opts and drives
// rounds of a 64-double allreduce across every rank, appending each
// round's CPU ns (sim execution cost, not modeled latency) to times.
// Every round executes an identical, deterministic event stream, so
// the fast rounds estimate the interference-free cost — timing the
// whole batch instead yields one sample that any neighbor-induced
// cache-thrash epoch inflates wholesale. Boot and firmware training
// stay outside the timed region, matching where the profiler and
// monitor attach.
func allreduceRounds(times []float64, nodes, rounds int, opts ...tccluster.Option) []float64 {
	topo, err := tccluster.Chain(nodes)
	check(err)
	c, err := tccluster.New(topo, tccluster.DefaultConfig(), opts...)
	check(err)
	defer c.Close()
	w, err := c.NewWorld(tccluster.DefaultMPIConfig())
	check(err)
	vec := make([]float64, 64)
	// GC pauses inside a timed round are the dominant self-inflicted
	// noise source on a small container — collect up front, then hold
	// the collector off until the measurement ends.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Two untimed rounds warm channel buffers, record pools and branch
	// predictors so the timed rounds measure steady state for every
	// configuration.
	for i := 0; i < 2+rounds; i++ {
		t0 := cpuNS()
		pending := nodes
		for r := 0; r < nodes; r++ {
			w.Rank(r).Allreduce(vec, tccluster.Sum, func(_ []float64, err error) {
				check(err)
				pending--
			})
		}
		c.Run()
		if pending != 0 {
			check(fmt.Errorf("overhead bench: allreduce round %d incomplete", i))
		}
		if d := cpuNS() - t0; i >= 2 {
			times = append(times, d)
		}
	}
	return times
}

func runOverheadBench(out string) {
	const nodes = 16
	const rounds = 60
	const trials = 9
	configs := []overheadConfig{
		{Name: "tracer"},
		{Name: "profile", Gated: true, extra: []tccluster.Option{tccluster.WithProfile()}},
		{Name: "monitor", Gated: true, extra: []tccluster.Option{tccluster.WithMonitor("127.0.0.1:0")}},
		{Name: "spans", extra: []tccluster.Option{tccluster.WithProfile(tccluster.ProfileSpans())}},
	}
	// Interleave the configurations within each trial so machine-load
	// drift lands on all of them alike.
	sweep := func() error {
		for t := 0; t < trials; t++ {
			for i := range configs {
				runtime.GC()
				opts := append([]tccluster.Option{
					tccluster.WithTracer(tccluster.NewCollector(1 << 14))}, configs[i].extra...)
				configs[i].rounds = allreduceRounds(configs[i].rounds, nodes, rounds, opts...)
			}
		}
		for i := range configs {
			configs[i].CPUNsP05Round = quantile(configs[i].rounds, overheadQuantile)
			configs[i].PctVsTracer = 100 * (configs[i].CPUNsP05Round/configs[0].CPUNsP05Round - 1)
		}
		return overheadGate(configs)
	}
	sweeps := 1
	gateErr := sweep()
	if gateErr != nil {
		// A neighbor-interference epoch can cover a good share of one
		// configuration's rounds and move its quantile. A second sweep
		// pools twice the rounds, so such an epoch weighs half as much;
		// the ceiling stays where it is.
		sweeps++
		gateErr = sweep()
	}

	res := overheadBench{
		Meta:       stats.NewBenchMeta(),
		Nodes:      nodes,
		Rounds:     rounds,
		Trials:     trials,
		Sweeps:     sweeps,
		GateMaxPct: overheadGateMaxPct,
		Configs:    configs,
	}
	enc, err := json.MarshalIndent(res, "", "  ")
	check(err)
	enc = append(enc, '\n')
	if out == "" {
		os.Stdout.Write(enc)
	} else {
		check(os.WriteFile(out, enc, 0o644))
	}
	fmt.Printf("overhead bench: tracer p05 %.0f CPU ns/round; overhead:", configs[0].CPUNsP05Round)
	for _, c := range configs[1:] {
		gated := ""
		if !c.Gated {
			gated = " (ungated)"
		}
		fmt.Printf(" %s %+.1f%%%s", c.Name, c.PctVsTracer, gated)
	}
	fmt.Println()
	check(gateErr)
	fmt.Printf("overhead bench gate: gated configurations <= %.0f%% over tracer-only\n", overheadGateMaxPct)
}
