package serve

import (
	"repro/internal/prof"
	"repro/internal/trace"
)

// Window is one goodput accounting window of the run, merged across all
// client nodes. The fault campaigns read the crash story straight off
// this series: timeouts spike for one detection window, goodput dips,
// then recovers on the replicas.
type Window struct {
	Offered   uint64 `json:"offered"`
	Admitted  uint64 `json:"admitted"`
	Completed uint64 `json:"completed"`
	InSLO     uint64 `json:"in_slo"`
	Timeouts  uint64 `json:"timeouts"`
}

// Report is the full outcome of a serving run, merged across nodes in
// node-index order. Every field is derived from deterministic per-node
// state, so serial and parallel runs of the same deployment produce
// byte-identical reports.
type Report struct {
	Nodes    int    `json:"nodes"`
	Shards   int    `json:"shards"`
	ReplicaN int    `json:"replica_n"`
	Policy   string `json:"policy"`

	Requests   uint64 `json:"requests"`
	Admitted   uint64 `json:"admitted"`
	Shed       uint64 `json:"shed"`
	Completed  uint64 `json:"completed"`
	InSLO      uint64 `json:"in_slo"`
	Timeouts   uint64 `json:"timeouts"`
	Late       uint64 `json:"late_responses"`
	Unroutable uint64 `json:"unroutable"`
	Failovers  uint64 `json:"failovers"`
	DeadMarks  uint64 `json:"dead_marks"`

	Reads    uint64 `json:"reads"`
	Writes   uint64 `json:"writes"`
	Local    uint64 `json:"local_fast_path"`
	Served   uint64 `json:"served"`
	Replicas uint64 `json:"replicas_applied"`
	Bad      uint64 `json:"bad_frames"`

	P50PS      float64 `json:"p50_ps"`
	P99PS      float64 `json:"p99_ps"`
	P999PS     float64 `json:"p999_ps"`
	MeanPS     float64 `json:"mean_ps"`
	GoodputPct float64 `json:"goodput_pct"`

	Checksum uint64 `json:"checksum"`

	WindowPS int64    `json:"window_ps"`
	Windows  []Window `json:"windows,omitempty"`
}

// sum totals one counter across all nodes.
func (s *Service) sum(c int) uint64 {
	var t uint64
	for _, ns := range s.nodes {
		t += ns.ctr[c].Load()
	}
	return t
}

// latency merges every node's request-latency histogram.
func (s *Service) latency() prof.HistSnapshot {
	var lat prof.HistSnapshot
	for _, ns := range s.nodes {
		lat.Merge(ns.lat.Snapshot())
	}
	return lat
}

// Report merges every node's state into the run outcome. Call after the
// run has drained (it reads non-atomic window and fold state).
func (s *Service) Report() Report {
	r := Report{
		Nodes:    len(s.nodes),
		Shards:   s.cfg.Shards,
		ReplicaN: s.cfg.ReplicaN,
		Policy:   string(s.cfg.Policy),
		WindowPS: int64(s.cfg.Window),

		Requests:   s.sum(cArrivals),
		Admitted:   s.sum(cAdmitted),
		Shed:       s.sum(cShed),
		Completed:  s.sum(cCompleted),
		InSLO:      s.sum(cInSLO),
		Timeouts:   s.sum(cTimeouts),
		Late:       s.sum(cLate),
		Unroutable: s.sum(cUnroutable),
		Failovers:  s.sum(cFailovers),
		DeadMarks:  s.sum(cDeadMarks),
		Reads:      s.sum(cReads),
		Writes:     s.sum(cWrites),
		Local:      s.sum(cLocal),
		Served:     s.sum(cServed),
		Replicas:   s.sum(cReplicas),
		Bad:        s.sum(cBad),
	}

	maxWin := 0
	for _, ns := range s.nodes {
		if len(ns.windows) > maxWin {
			maxWin = len(ns.windows)
		}
		// Order-independent within a node (the fold is addition), made
		// node-position-sensitive here so swapped shard states cannot
		// cancel out.
		r.Checksum ^= mix64(ns.srvFold + mix64(uint64(ns.id)+ns.srvCount))
	}
	lat := s.latency()
	r.P50PS = lat.Quantile(0.50)
	r.P99PS = lat.Quantile(0.99)
	r.P999PS = lat.Quantile(0.999)
	r.MeanPS = lat.Mean()
	if r.Requests > 0 {
		r.GoodputPct = 100 * float64(r.InSLO) / float64(r.Requests)
	}

	r.Windows = make([]Window, maxWin)
	for _, ns := range s.nodes {
		for i, w := range ns.windows {
			r.Windows[i].Offered += w.offered
			r.Windows[i].Admitted += w.admitted
			r.Windows[i].Completed += w.completed
			r.Windows[i].InSLO += w.inSLO
			r.Windows[i].Timeouts += w.timeouts
		}
	}
	return r
}

// Metrics is the mid-run view the monitor merges into /metrics and
// /metrics.json: cluster-wide request counters and the merged latency
// histogram (serve.latency_ps). It loads single-writer atomics only, so
// it is safe to call while the simulation runs.
func (s *Service) Metrics() trace.Snapshot {
	m := trace.NewSnapshot()
	for _, c := range []struct {
		name string
		idx  int
	}{
		{"serve.requests", cArrivals},
		{"serve.completed", cCompleted},
		{"serve.in_slo", cInSLO},
		{"serve.timeouts", cTimeouts},
		{"serve.shed", cShed},
		{"serve.dead_marks", cDeadMarks},
	} {
		m.Counters[trace.Key{Name: c.name}] = s.sum(c.idx)
	}
	m.Histograms[trace.Key{Name: "serve.latency_ps"}] = s.latency()
	return m
}
