package tccluster

import (
	"repro/internal/monitor"
	"repro/internal/prof"
	"repro/internal/trace"
)

// Metrics merges every series source of the cluster into one snapshot:
// the core counters (link ports, northbridges, per-node ring-full
// stalls), the profiler's phase and PDES series under WithProfile, the
// fault injector's link state transitions under WithFaults, and every
// World and Service built through NewWorld and NewService. Each layer
// counts its own series in atomics, so the snapshot is the same with or
// without a tracer and is safe to take while the simulation runs. A
// WithMonitor cluster samples and scrapes exactly this snapshot.
func (c *Cluster) Metrics() MetricsSnapshot {
	c.srcMu.Lock()
	srcs := c.sources
	c.srcMu.Unlock()
	s := c.Cluster.Metrics()
	for _, src := range srcs {
		s.Merge(src.Metrics())
	}
	return s
}

// addSource appends src to the list Metrics merges.
func (c *Cluster) addSource(src monitor.Source) {
	c.srcMu.Lock()
	c.sources = append(c.sources, src)
	c.srcMu.Unlock()
}

// profileSource renders a profiler's series: one histogram per phase
// and link or node, named prof.<phase>_ps, and the PDES accounting,
// with the partition in Key.Node and the destination partition in
// Key.Chan.
type profileSource struct{ p *prof.Profiler }

func (ps profileSource) Metrics() trace.Snapshot {
	s := trace.NewSnapshot()
	p := ps.p
	for i := 0; p.Link(i) != nil; i++ {
		for ph := prof.LinkPhase(0); ph < prof.NumLinkPhases; ph++ {
			if h := p.Link(i).Phase(ph); h.Count > 0 {
				s.Histograms[trace.Key{Name: "prof." + ph.String() + "_ps", Link: i}] = h
			}
		}
	}
	for i := 0; p.Node(i) != nil; i++ {
		for ph := prof.NodePhase(0); ph < prof.NumNodePhases; ph++ {
			if h := p.Node(i).Phase(ph); h.Count > 0 {
				s.Histograms[trace.Key{Name: "prof." + ph.String() + "_ps", Node: i}] = h
			}
		}
	}
	st := p.ParallelStats()
	if st == nil {
		return s
	}
	sum := st.Summary()
	s.Counters[trace.Key{Name: "prof.pdes.windows"}] = sum.Windows
	s.Counters[trace.Key{Name: "prof.pdes.dirty_flips"}] = sum.DirtyFlips
	s.Counters[trace.Key{Name: "prof.pdes.wide_windows"}] = sum.WideWindows
	s.Gauges[trace.Key{Name: "prof.pdes.occupancy"}] = sum.Occupancy
	s.Gauges[trace.Key{Name: "prof.pdes.imbalance"}] = sum.Imbalance
	s.Gauges[trace.Key{Name: "prof.pdes.mean_window_ns"}] = sum.MeanWindowNs
	s.Gauges[trace.Key{Name: "prof.pdes.cut_links"}] = float64(sum.CutLinks)
	s.Gauges[trace.Key{Name: "prof.pdes.cut_weight"}] = sum.CutWeight
	for _, pt := range sum.Partitions {
		s.Gauges[trace.Key{Name: "prof.pdes.partition_busy_ms", Node: pt.Partition}] = pt.BusyMS
		s.Gauges[trace.Key{Name: "prof.pdes.partition_barrier_wait_ms", Node: pt.Partition}] = pt.BarrierWaitMS
	}
	for from, row := range sum.MailboxPosts {
		for to, n := range row {
			if n > 0 {
				s.Counters[trace.Key{Name: "prof.pdes.mailbox_posts", Node: from, Chan: to}] = n
			}
		}
	}
	return s
}
