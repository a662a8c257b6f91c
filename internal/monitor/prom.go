package monitor

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/trace"
)

// Prometheus text-format rendering (version 0.0.4): every metric name
// is prefixed tcc_ and mangled to the [a-zA-Z0-9_] alphabet, keys
// render as node/link/chan labels, counters and gauges map directly,
// and log2 histograms render as summaries with prof.HistSnapshot's
// interpolated quantiles (the exporter-side convention for
// pre-aggregated distributions). This is the only Prometheus writer:
// every series reaches it through the Monitor's one Source.

var promQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// promName mangles a dotted metric name into a Prometheus identifier.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("tcc_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promLabels(k trace.Key) string {
	return fmt.Sprintf(`node="%d",link="%d",chan="%d"`, k.Node, k.Link, k.Chan)
}

// sortedKeys returns keys grouped by name then scope, so every scrape
// of the same state is byte-identical.
func sortedKeys[V any](m map[trace.Key]V) []trace.Key {
	keys := make([]trace.Key, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	return keys
}

// WritePrometheus renders a snapshot in Prometheus text exposition
// format.
func WritePrometheus(w io.Writer, s trace.Snapshot) error {
	bw := &errWriter{w: w}
	emitHeader := func(name, typ string, last *string) {
		if *last == name {
			return
		}
		*last = name
		bw.printf("# HELP %s TCCluster %s %s\n", name, typ, "metric")
		bw.printf("# TYPE %s %s\n", name, typ)
	}

	last := ""
	for _, k := range sortedKeys(s.Counters) {
		name := promName(k.Name)
		emitHeader(name, "counter", &last)
		bw.printf("%s{%s} %d\n", name, promLabels(k), s.Counters[k])
	}
	last = ""
	for _, k := range sortedKeys(s.Gauges) {
		name := promName(k.Name)
		emitHeader(name, "gauge", &last)
		bw.printf("%s{%s} %g\n", name, promLabels(k), s.Gauges[k])
	}
	last = ""
	for _, k := range sortedKeys(s.Histograms) {
		h := s.Histograms[k]
		name := promName(k.Name)
		emitHeader(name, "summary", &last)
		labels := promLabels(k)
		for _, q := range promQuantiles {
			bw.printf("%s{%s,quantile=\"%g\"} %g\n", name, labels, q, h.Quantile(q))
		}
		bw.printf("%s_sum{%s} %d\n", name, labels, h.Sum)
		bw.printf("%s_count{%s} %d\n", name, labels, h.Count)
	}
	return bw.err
}

// errWriter latches the first write error so rendering code stays
// branch-free.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
