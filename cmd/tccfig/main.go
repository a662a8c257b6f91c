// Command tccfig regenerates every quantitative artifact of the paper's
// evaluation (DESIGN.md experiment index E1-E11): Figures 6 and 7, the
// multi-hop latency measurement, the interconnect baseline comparison,
// the coherency-scaling argument, the write-combining ablation, the
// link-speed sweep, endpoint scaling, the MPI/PGAS middleware timings
// and the address-map scaling table — plus the extensions E12-E20, the
// last of them the message-library ping-pong (-exp msglib).
//
// Usage:
//
//	tccfig             # everything
//	tccfig -fig 6      # just Figure 6
//	tccfig -exp hops   # one experiment by name
//	tccfig -csv        # figures as CSV
//	tccfig -parallel 4 # run experiment clusters on 4 partition workers
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/stats"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate: 6 or 7 (0 = per -exp)")
	chart := flag.Bool("chart", false, "render figures as ASCII bar charts")
	exp := flag.String("exp", "all",
		"experiment: fig6|fig7|hops|baseline|coherency|wc|linkspeed|endpoints|mpi|pgas|addrmap|faults|traffic|jitter|breakdown|boot|msglib|all")
	csv := flag.Bool("csv", false, "emit figures as CSV instead of tables")
	par := scenario.AddParallelFlag(flag.CommandLine)
	flag.Parse()
	experiments.SetParallel(*par)

	switch *fig {
	case 6:
		*exp = "fig6"
	case 7:
		*exp = "fig7"
	}

	run := func(name string) bool { return *exp == "all" || *exp == name }
	emitFig := func(f *stats.Figure) {
		switch {
		case *csv:
			f.CSV(os.Stdout)
		case *chart:
			f.Chart(os.Stdout, 50)
		default:
			f.Render(os.Stdout)
		}
		fmt.Println()
	}
	emitTable := func(t *stats.Table) {
		if *csv {
			fmt.Printf("# %s\n", t.Title)
			t.CSV(os.Stdout)
		} else {
			t.Render(os.Stdout)
		}
		fmt.Println()
	}

	ran := false
	if run("fig6") {
		ran = true
		f, err := experiments.Fig6Bandwidth(nil)
		check(err)
		emitFig(f)
	}
	if run("fig7") {
		ran = true
		f, err := experiments.Fig7Latency(nil)
		check(err)
		emitFig(f)
	}
	if run("hops") {
		ran = true
		t, err := experiments.HopLatency(6)
		check(err)
		emitTable(t)
	}
	if run("baseline") {
		ran = true
		t, err := experiments.BaselineComparison()
		check(err)
		emitTable(t)
	}
	if run("coherency") {
		ran = true
		emitTable(experiments.CoherencyScaling(nil, 227))
	}
	if run("wc") {
		ran = true
		t, err := experiments.WCAblation(64 << 10)
		check(err)
		emitTable(t)
		t, err = experiments.WCBufferCount()
		check(err)
		emitTable(t)
	}
	if run("linkspeed") {
		ran = true
		t, err := experiments.LinkSpeedSweep()
		check(err)
		emitTable(t)
	}
	if run("endpoints") {
		ran = true
		t, err := experiments.EndpointScaling(nil)
		check(err)
		emitTable(t)
	}
	if run("mpi") {
		ran = true
		t, err := experiments.MPICollectives(nil)
		check(err)
		emitTable(t)
		t, err = experiments.AllreduceAblation(0)
		check(err)
		emitTable(t)
	}
	if run("pgas") {
		ran = true
		t, err := experiments.PGASLatencies()
		check(err)
		emitTable(t)
	}
	if run("addrmap") {
		ran = true
		emitTable(experiments.AddressMapScaling())
	}
	if run("faults") {
		ran = true
		t, err := experiments.FaultTolerance()
		check(err)
		emitTable(t)
		t, err = experiments.FaultRecovery()
		check(err)
		emitTable(t)
	}
	if run("traffic") {
		ran = true
		t, err := experiments.MeshTraffic(0)
		check(err)
		emitTable(t)
	}
	if run("jitter") {
		ran = true
		t, _, err := experiments.PollJitter(0)
		check(err)
		emitTable(t)
	}
	if run("breakdown") {
		ran = true
		t, err := experiments.LatencyBreakdown()
		check(err)
		emitTable(t)
		t, err = experiments.SupernodeTransit()
		check(err)
		emitTable(t)
	}
	if run("boot") {
		ran = true
		s, err := experiments.BootTrace()
		check(err)
		fmt.Println(s)
	}
	if run("msglib") {
		ran = true
		t, err := experiments.MsgLibLatency()
		check(err)
		emitTable(t)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "tccfig: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tccfig:", err)
		os.Exit(1)
	}
}
