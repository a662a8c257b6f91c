package monitor

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// promSample matches one Prometheus 0.0.4 text-format sample line:
// name{labels} value.
var promSample = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\} [-+0-9.eE]+$`)

func promTestSnapshot() trace.Snapshot {
	m := trace.NewMetrics()
	m.Counter(trace.Key{Name: "port.pkts_sent", Link: 1}).Add(42)
	m.Counter(trace.Key{Name: "port.pkts_sent", Link: 0}).Add(7)
	m.Counter(trace.Key{Name: "nb.master_aborts", Node: 2}).Add(3)
	m.Gauge(trace.Key{Name: "link.utilization", Link: 0}).Set(0.25)
	h := m.Histogram(trace.Key{Name: "link.packet_latency_ps", Link: 0})
	for v := sim.Time(1); v <= 100; v++ {
		h.Observe(v * 1000)
	}
	return m.Snapshot()
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
		"tcc_link_packet_latency_ps_sum",
		`tcc_link_packet_latency_ps_count{node="0",link="0",chan="0"} 100`,
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
		"port.pkts_sent":      "tcc_port_pkts_sent",
		"events.barrier-exit": "tcc_events_barrier_exit",
		"mpi.barrier_ps":      "tcc_mpi_barrier_ps",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
