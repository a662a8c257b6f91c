package prof

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// PhaseStats is one phase's aggregate in a summary. Virtual-time
// quantities (counts, totals, quantiles) are deterministic: two runs
// of the same scenario produce identical values regardless of executor.
type PhaseStats struct {
	Phase   string  `json:"phase"`
	Count   uint64  `json:"count"`
	TotalPS uint64  `json:"total_ps"`
	MeanPS  float64 `json:"mean_ps"`
	P50PS   float64 `json:"p50_ps"`
	P99PS   float64 `json:"p99_ps"`
}

// LinkSummary is one external link's phase breakdown.
type LinkSummary struct {
	Link    int          `json:"link"`
	TotalPS uint64       `json:"total_ps"`
	Phases  []PhaseStats `json:"phases"`
}

// NodeSummary is one node's pipeline-phase breakdown.
type NodeSummary struct {
	Node    int          `json:"node"`
	TotalPS uint64       `json:"total_ps"`
	Phases  []PhaseStats `json:"phases"`
}

// CriticalHop ranks one link in the critical-path summary: how much of
// the cluster-wide link-attributed time it absorbed and which phase
// dominates it. For a collective, the top entry names the hop that
// bounds the operation.
type CriticalHop struct {
	Link     int     `json:"link"`
	TotalPS  uint64  `json:"total_ps"`
	SharePct float64 `json:"share_pct"`
	Dominant string  `json:"dominant_phase"`
}

// Summary is the renderable, JSON-marshalable form of a profiled run:
// the paper-style latency budget, per-link and per-node breakdowns, a
// critical-path ranking, and (for parallel runs) the PDES runtime
// accounting.
type Summary struct {
	// Budget is the cluster-wide per-phase latency budget, link phases
	// first then node phases, zero-count phases omitted.
	Budget       []PhaseStats         `json:"budget"`
	Links        []LinkSummary        `json:"links,omitempty"`
	Nodes        []NodeSummary        `json:"nodes,omitempty"`
	CriticalPath []CriticalHop        `json:"critical_path,omitempty"`
	PDES         *sim.ParallelSummary `json:"pdes,omitempty"`
}

// maxCriticalHops bounds the critical-path ranking so big-topology
// summaries stay readable; the full per-link table is still present.
const maxCriticalHops = 8

func phaseStats(name string, s HistSnapshot) PhaseStats {
	return PhaseStats{
		Phase:   name,
		Count:   s.Count,
		TotalPS: s.Sum,
		MeanPS:  s.Mean(),
		P50PS:   s.Quantile(0.5),
		P99PS:   s.Quantile(0.99),
	}
}

// Summary assembles the current state of every histogram plus the
// attached PDES accounting. Safe mid-run.
func (p *Profiler) Summary() Summary {
	var out Summary
	if p == nil {
		return out
	}
	// Cluster-wide budget: merge snapshots across links / nodes per
	// phase. Quantiles of a merged phase come from summed buckets.
	for ph := LinkPhase(0); ph < NumLinkPhases; ph++ {
		var merged HistSnapshot
		for i := range p.links {
			merged.Merge(p.links[i].Phase(ph))
		}
		if merged.Count > 0 {
			out.Budget = append(out.Budget, phaseStats(ph.String(), merged))
		}
	}
	for ph := NodePhase(0); ph < NumNodePhases; ph++ {
		var merged HistSnapshot
		for i := range p.nodes {
			merged.Merge(p.nodes[i].Phase(ph))
		}
		if merged.Count > 0 {
			out.Budget = append(out.Budget, phaseStats(ph.String(), merged))
		}
	}

	var linkTotal uint64
	for i := range p.links {
		ls := LinkSummary{Link: i}
		for ph := LinkPhase(0); ph < NumLinkPhases; ph++ {
			s := p.links[i].Phase(ph)
			if s.Count == 0 {
				continue
			}
			ls.TotalPS += s.Sum
			ls.Phases = append(ls.Phases, phaseStats(ph.String(), s))
		}
		if len(ls.Phases) > 0 {
			out.Links = append(out.Links, ls)
			linkTotal += ls.TotalPS
		}
	}
	for i := range p.nodes {
		ns := NodeSummary{Node: i}
		for ph := NodePhase(0); ph < NumNodePhases; ph++ {
			s := p.nodes[i].Phase(ph)
			if s.Count == 0 {
				continue
			}
			ns.TotalPS += s.Sum
			ns.Phases = append(ns.Phases, phaseStats(ph.String(), s))
		}
		if len(ns.Phases) > 0 {
			out.Nodes = append(out.Nodes, ns)
		}
	}

	// Critical path: links ranked by attributed time, dominant phase
	// named. Ties break on link index so the ranking is deterministic.
	ranked := append([]LinkSummary(nil), out.Links...)
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].TotalPS != ranked[j].TotalPS {
			return ranked[i].TotalPS > ranked[j].TotalPS
		}
		return ranked[i].Link < ranked[j].Link
	})
	for _, ls := range ranked {
		if len(out.CriticalPath) >= maxCriticalHops || ls.TotalPS == 0 {
			break
		}
		dom := ls.Phases[0]
		for _, ph := range ls.Phases[1:] {
			if ph.TotalPS > dom.TotalPS {
				dom = ph
			}
		}
		hop := CriticalHop{Link: ls.Link, TotalPS: ls.TotalPS, Dominant: dom.Phase}
		if linkTotal > 0 {
			hop.SharePct = 100 * float64(ls.TotalPS) / float64(linkTotal)
		}
		out.CriticalPath = append(out.CriticalPath, hop)
	}

	if p.pstats != nil {
		s := p.pstats.Summary()
		out.PDES = &s
	}
	return out
}

// fmtPS renders picoseconds with an adaptive unit.
func fmtPS(ps float64) string {
	switch {
	case ps >= 1e6:
		return fmt.Sprintf("%.2fus", ps/1e6)
	case ps >= 1e3:
		return fmt.Sprintf("%.1fns", ps/1e3)
	default:
		return fmt.Sprintf("%.0fps", ps)
	}
}

// WriteText renders the summary as the human-readable latency budget:
// the cluster-wide phase table, the critical-path ranking, and the
// PDES accounting when present. The budget and critical-path sections
// are deterministic; the PDES section carries wall-clock numbers.
func (s *Summary) WriteText(w io.Writer) error {
	ew := &errWriter{w: w}
	if len(s.Budget) == 0 {
		ew.printf("profile: no observations\n")
		return ew.err
	}
	var total uint64
	for _, ph := range s.Budget {
		total += ph.TotalPS
	}
	ew.printf("latency budget (per-phase, cluster-wide):\n")
	ew.printf("  %-12s %12s %10s %10s %10s %7s\n", "phase", "count", "mean", "p50", "p99", "share")
	for _, ph := range s.Budget {
		share := 0.0
		if total > 0 {
			share = 100 * float64(ph.TotalPS) / float64(total)
		}
		ew.printf("  %-12s %12d %10s %10s %10s %6.1f%%\n",
			ph.Phase, ph.Count, fmtPS(ph.MeanPS), fmtPS(ph.P50PS), fmtPS(ph.P99PS), share)
	}
	if len(s.CriticalPath) > 0 {
		ew.printf("critical path (links by attributed time):\n")
		for _, hop := range s.CriticalPath {
			ew.printf("  link %-3d %10s %6.1f%%  dominant %s\n",
				hop.Link, fmtPS(float64(hop.TotalPS)), hop.SharePct, hop.Dominant)
		}
	}
	if s.PDES != nil {
		ew.printf("pdes: %d windows, occupancy %.2f, imbalance %.2f, serial %.2fms, span %.2fms\n",
			s.PDES.Windows, s.PDES.Occupancy, s.PDES.Imbalance, s.PDES.SerialMS, s.PDES.SpanMS)
		ew.printf("  cut: %d links crossing, weight %.3f\n", s.PDES.CutLinks, s.PDES.CutWeight)
		ew.printf("  windows: %d dirty flips, %d widened past 2x lookahead, mean width %.1fns\n",
			s.PDES.DirtyFlips, s.PDES.WideWindows, s.PDES.MeanWindowNs)
		for _, ps := range s.PDES.Partitions {
			ew.printf("  partition %d: %d events, busy %.2fms, barrier wait %.2fms, %d active windows\n",
				ps.Partition, ps.Events, ps.BusyMS, ps.BarrierWaitMS, ps.ActiveWindows)
		}
	}
	return ew.err
}

// errWriter latches the first write error so rendering stays
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
