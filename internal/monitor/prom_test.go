package monitor

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/trace"
)

// promSample matches one Prometheus 0.0.4 text-format sample line:
// name{labels} value.
var promSample = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\} [-+0-9.eE]+$`)

func promTestSnapshot() trace.Snapshot {
	s := trace.NewSnapshot()
	s.Counters[trace.Key{Name: "port.pkts_sent", Link: 1}] = 42
	s.Counters[trace.Key{Name: "port.pkts_sent", Link: 0}] = 7
	s.Counters[trace.Key{Name: "nb.master_aborts", Node: 2}] = 3
	s.Gauges[trace.Key{Name: "link.utilization", Link: 0}] = 0.25
	var h prof.Hist
	for v := sim.Time(1); v <= 100; v++ {
		h.Observe(v * 1000)
	}
	s.Histograms[trace.Key{Name: "prof.link.ser_ps", Link: 0}] = h.Snapshot()
	return s
}

func TestPrometheusFormatValid(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, promTestSnapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	helpSeen := map[string]bool{}
	typeSeen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name := strings.Fields(line)[2]
			if helpSeen[name] {
				t.Errorf("duplicate HELP for %s", name)
			}
			helpSeen[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			name, typ := f[2], f[3]
			if typeSeen[name] {
				t.Errorf("duplicate TYPE for %s", name)
			}
			typeSeen[name] = true
			if typ != "counter" && typ != "gauge" && typ != "summary" {
				t.Errorf("unknown TYPE %q for %s", typ, name)
			}
			if !helpSeen[name] {
				t.Errorf("TYPE before HELP for %s", name)
			}
		default:
			if !promSample.MatchString(line) {
				t.Errorf("malformed sample line: %q", line)
				continue
			}
			base := line[:strings.IndexByte(line, '{')]
			base = strings.TrimSuffix(strings.TrimSuffix(base, "_sum"), "_count")
			if !typeSeen[base] {
				t.Errorf("sample %q has no preceding TYPE", line)
			}
		}
	}

	for _, want := range []string{
		`tcc_port_pkts_sent{node="0",link="1",chan="0"} 42`,
		`tcc_nb_master_aborts{node="2",link="0",chan="0"} 3`,
		`tcc_link_utilization{node="0",link="0",chan="0"} 0.25`,
		`quantile="0.5"`,
		`quantile="0.999"`,
		"tcc_prof_link_ser_ps_sum",
		`tcc_prof_link_ser_ps_count{node="0",link="0",chan="0"} 100`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}

func TestPrometheusDeterministic(t *testing.T) {
	s := promTestSnapshot()
	var a, b bytes.Buffer
	if err := WritePrometheus(&a, s); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, s); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two renders of the same snapshot differ")
	}
	// Link ordering: link 0 before link 1 under the same name.
	out := a.String()
	if strings.Index(out, `link="0",chan="0"} 7`) > strings.Index(out, `link="1",chan="0"} 42`) {
		t.Fatal("keys not sorted by scope within a name")
	}
}

func TestPromNameMangling(t *testing.T) {
	cases := map[string]string{
		"port.pkts_sent":   "tcc_port_pkts_sent",
		"mpi.barrier_exit": "tcc_mpi_barrier_exit",
		"prof.link.ser_ps": "tcc_prof_link_ser_ps",
		"serve.a-b":        "tcc_serve_a_b",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
