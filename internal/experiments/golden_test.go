package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current simulator")

const goldenPath = "testdata/golden.txt"

// goldenRuns lists every experiment cmd/tccfig prints, with tccfig's
// arguments, in tccfig's order.
var goldenRuns = []struct {
	name string
	run  func(w *strings.Builder) error
}{
	{"fig6", func(w *strings.Builder) error { return figure(w)(Fig6Bandwidth(nil)) }},
	{"fig7", func(w *strings.Builder) error { return figure(w)(Fig7Latency(nil)) }},
	{"hops", func(w *strings.Builder) error { return table(w)(HopLatency(6)) }},
	{"baseline", func(w *strings.Builder) error { return table(w)(BaselineComparison()) }},
	{"coherency", func(w *strings.Builder) error { return table(w)(CoherencyScaling(nil, 227), nil) }},
	{"wc", func(w *strings.Builder) error { return table(w)(WCAblation(64 << 10)) }},
	{"wcbuffers", func(w *strings.Builder) error { return table(w)(WCBufferCount()) }},
	{"linkspeed", func(w *strings.Builder) error { return table(w)(LinkSpeedSweep()) }},
	{"endpoints", func(w *strings.Builder) error { return table(w)(EndpointScaling(nil)) }},
	{"mpi", func(w *strings.Builder) error { return table(w)(MPICollectives(nil)) }},
	{"allreduce", func(w *strings.Builder) error { return table(w)(AllreduceAblation(0)) }},
	{"pgas", func(w *strings.Builder) error { return table(w)(PGASLatencies()) }},
	{"addrmap", func(w *strings.Builder) error { return table(w)(AddressMapScaling(), nil) }},
	{"faults", func(w *strings.Builder) error { return table(w)(FaultTolerance()) }},
	{"recovery", func(w *strings.Builder) error { return table(w)(FaultRecovery()) }},
	{"traffic", func(w *strings.Builder) error { return table(w)(MeshTraffic(0)) }},
	{"jitter", func(w *strings.Builder) error {
		t, samples, err := PollJitter(0)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "samples = %d\n", len(samples))
		for _, p := range []float64{0, 25, 50, 75, 95, 100} {
			fmt.Fprintf(w, "p%g = %s\n", p, fullFloat(stats.Percentile(samples, p)))
		}
		fmt.Fprintf(w, "mean = %s\n", fullFloat(stats.Mean(samples)))
		return table(w)(t, nil)
	}},
	{"breakdown", func(w *strings.Builder) error { return table(w)(LatencyBreakdown()) }},
	{"transit", func(w *strings.Builder) error { return table(w)(SupernodeTransit()) }},
	{"boot", func(w *strings.Builder) error {
		s, err := BootTrace()
		w.WriteString(s + "\n")
		return err
	}},
}

func fullFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// figure writes every point of a figure at full float precision.
func figure(w *strings.Builder) func(*stats.Figure, error) error {
	return func(f *stats.Figure, err error) error {
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# %s (x: %s, y: %s)\n", f.Title, f.XLabel, f.YLabel)
		for _, s := range f.Series {
			for _, p := range s.Points {
				fmt.Fprintf(w, "%s @ %s = %s\n", s.Name, fullFloat(p.X), fullFloat(p.Y))
			}
		}
		return nil
	}
}

// table writes every cell of a table as the experiment formatted it.
func table(w *strings.Builder) func(*stats.Table, error) error {
	return func(t *stats.Table, err error) error {
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# %s\n%s\n", t.Title, strings.Join(t.Columns, " | "))
		for _, row := range t.Rows {
			fmt.Fprintln(w, strings.Join(row, " | "))
		}
		return nil
	}
}

// TestGoldenAnswers pins every simulated answer tccfig prints: any
// change to a timing constant or to event ordering moves at least one
// point. Experiments run concurrently (each boots its own clusters) to
// keep the whole set inside a tier-1 time budget. Regenerate with
// `go test ./internal/experiments -run TestGoldenAnswers -update` only
// in a change meant to alter simulated behaviour.
func TestGoldenAnswers(t *testing.T) {
	out := make([]strings.Builder, len(goldenRuns))
	t.Run("run", func(t *testing.T) {
		for i, g := range goldenRuns {
			i, g := i, g
			t.Run(g.name, func(t *testing.T) {
				t.Parallel()
				fmt.Fprintf(&out[i], "## %s\n", g.name)
				if err := g.run(&out[i]); err != nil {
					t.Fatal(err)
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	var got strings.Builder
	for i := range out {
		got.WriteString(out[i].String())
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s:%d differs from the simulator:\n got: %q\nwant: %q", goldenPath, i+1, g, w)
		}
	}
}

// TestGoldenAnswersParallel reruns the experiments that time stores with
// northbridge write watches on two partition workers, where the watch
// callbacks fire on partition goroutines, and checks each against its
// serial section of the golden file.
func TestGoldenAnswersParallel(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{}
	var name string
	for _, line := range strings.SplitAfter(string(want), "\n") {
		if n, ok := strings.CutPrefix(line, "## "); ok {
			name = strings.TrimSuffix(n, "\n")
			continue
		}
		sections[name] += line
	}
	SetParallel(2)
	defer SetParallel(0)
	for _, g := range goldenRuns {
		switch g.name {
		case "hops", "linkspeed", "traffic", "breakdown":
		default:
			continue
		}
		if sections[g.name] == "" {
			t.Fatalf("%s: no section in %s", g.name, goldenPath)
		}
		var got strings.Builder
		if err := g.run(&got); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got.String() != sections[g.name] {
			t.Errorf("%s at -parallel 2 differs from serial:\n got: %q\nwant: %q", g.name, got.String(), sections[g.name])
		}
	}
}
