package monitor

import (
	"repro/internal/core"
	"repro/internal/prof"
	"repro/internal/trace"
)

// JSON shapes served on /metrics.json and consumed by cmd/tcctop. Keys
// flatten into explicit fields because trace.Key is a struct and Go
// maps with struct keys do not marshal.

// MetricJSON is one counter value.
type MetricJSON struct {
	Name  string `json:"name"`
	Node  int    `json:"node"`
	Link  int    `json:"link"`
	Chan  int    `json:"chan"`
	Value uint64 `json:"value"`
}

// GaugeJSON is one gauge value.
type GaugeJSON struct {
	Name  string  `json:"name"`
	Node  int     `json:"node"`
	Link  int     `json:"link"`
	Chan  int     `json:"chan"`
	Value float64 `json:"value"`
}

// HistJSON is one histogram with derived quantiles, so dashboards never
// re-derive them from raw buckets.
type HistJSON struct {
	Name  string  `json:"name"`
	Node  int     `json:"node"`
	Link  int     `json:"link"`
	Chan  int     `json:"chan"`
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// WindowJSON is one flight-recorder window with counter deltas.
type WindowJSON struct {
	Index    int64             `json:"index"`
	StartPS  int64             `json:"start_ps"`
	EndPS    int64             `json:"end_ps"`
	Counters []MetricJSON      `json:"counters"`
	Links    []core.LinkStatus `json:"links,omitempty"`
}

// Status is the full /metrics.json document.
type Status struct {
	Status      string       `json:"status"` // "ok" or "degraded"
	VirtualPS   int64        `json:"virtual_ps"`
	Samples     uint64       `json:"samples"`
	IntervalPS  int64        `json:"interval_ps"`
	DumpError   string       `json:"dump_error,omitempty"`
	Counters    []MetricJSON `json:"counters"`
	Gauges      []GaugeJSON  `json:"gauges"`
	Histograms  []HistJSON   `json:"histograms"`
	Window      *WindowJSON  `json:"window,omitempty"` // latest closed window
	Alerts      []Alert      `json:"alerts"`
	AlertsTotal uint64       `json:"alerts_total"`
}

func countersToJSON(m map[trace.Key]uint64) []MetricJSON {
	out := make([]MetricJSON, 0, len(m))
	for _, k := range sortedKeys(m) {
		out = append(out, MetricJSON{Name: k.Name, Node: k.Node, Link: k.Link,
			Chan: k.Chan, Value: m[k]})
	}
	return out
}

func gaugesToJSON(m map[trace.Key]float64) []GaugeJSON {
	out := make([]GaugeJSON, 0, len(m))
	for _, k := range sortedKeys(m) {
		out = append(out, GaugeJSON{Name: k.Name, Node: k.Node, Link: k.Link,
			Chan: k.Chan, Value: m[k]})
	}
	return out
}

func histsToJSON(m map[trace.Key]prof.HistSnapshot) []HistJSON {
	out := make([]HistJSON, 0, len(m))
	for _, k := range sortedKeys(m) {
		h := m[k]
		out = append(out, HistJSON{Name: k.Name, Node: k.Node, Link: k.Link,
			Chan: k.Chan, Count: h.Count, Sum: h.Sum, Mean: h.Mean(),
			P50: h.Quantile(0.5), P90: h.Quantile(0.9),
			P99: h.Quantile(0.99), P999: h.Quantile(0.999)})
	}
	return out
}

func windowToJSON(w Window) WindowJSON {
	return WindowJSON{
		Index:    w.Index,
		StartPS:  int64(w.Start),
		EndPS:    int64(w.End),
		Counters: countersToJSON(w.Delta.Counters),
		Links:    w.Links,
	}
}

// Status assembles the live status document: a fresh snapshot of the
// source plus the latest recorder window and active alerts.
func (m *Monitor) Status() Status {
	s := m.src.Metrics()
	last, samples := m.LastSample()
	m.mu.Lock()
	dumpErr := m.dumpErr
	m.mu.Unlock()
	alerts := m.watchdog.Active()
	raised, _ := m.watchdog.Counts()
	st := Status{
		Status:      "ok",
		VirtualPS:   int64(last),
		Samples:     samples,
		IntervalPS:  int64(m.interval),
		DumpError:   dumpErr,
		Counters:    countersToJSON(s.Counters),
		Gauges:      gaugesToJSON(s.Gauges),
		Histograms:  histsToJSON(s.Histograms),
		Alerts:      alerts,
		AlertsTotal: raised,
	}
	if len(alerts) > 0 {
		st.Status = "degraded"
	}
	if w, ok := m.recorder.Last(); ok {
		wj := windowToJSON(w)
		st.Window = &wj
	}
	return st
}
