package sim

import "sync/atomic"

// ParallelStats accounts for where the parallel executor's wall time
// goes: per-partition busy time and events executed, barrier wait (the
// gap between a partition finishing its window and the slowest
// partition finishing), window occupancy, the coordinator's serial
// sections, and the cross-partition mailbox traffic matrix. It answers
// the question the sim.pdes.* ledger in bench/ raises — why
// sim.pdes.speedup_2w sits near 1.0 — by separating load imbalance
// from barrier overhead from mailbox chatter.
//
// All cumulative fields are atomics so an HTTP scrape may read a
// consistent-enough summary mid-run; the per-window scratch slices are
// touched only by the worker that owns the slot and by the coordinator
// after the worker's done message (channel happens-before), so they
// need no synchronization and cost workers nothing but two clock reads
// per window.
type ParallelStats struct {
	n int

	// Per-window scratch, reset by the coordinator before dispatch and
	// written by each worker during its window.
	winBusy   []int64 // wall ns inside runEvents this window
	winEvents []uint64

	// Cumulative per-partition accounting.
	busy    []atomic.Int64 // wall ns executing events
	barrier []atomic.Int64 // wall ns waiting for the window's slowest partition
	events  []atomic.Uint64
	activeW []atomic.Uint64 // windows in which the partition had work

	windows atomic.Uint64
	span    atomic.Int64 // sum over windows of the slowest partition's busy ns
	serial  atomic.Int64 // coordinator serial-section wall ns

	mail []atomic.Uint64 // n*n mailbox posts, row = producer partition

	// Window-geometry accounting: dirtyFlips counts mailbox flips
	// actually performed (vs the n² flips per window a full matrix scan
	// would pay), widthSum the sum of window widths in virtual ps,
	// wideWindows the windows widened past 2× the global lookahead.
	dirtyFlips   atomic.Uint64
	widthSum     atomic.Int64
	widthSamples atomic.Uint64
	wideWindows  atomic.Uint64

	// Partition-cut description, set once at setup by whoever derived
	// the partitions; not touched by the run loop.
	cutLinks  int
	cutWeight float64
}

// NewParallelStats sizes the accounting for n partitions.
func NewParallelStats(n int) *ParallelStats {
	return &ParallelStats{
		n:         n,
		winBusy:   make([]int64, n),
		winEvents: make([]uint64, n),
		busy:      make([]atomic.Int64, n),
		barrier:   make([]atomic.Int64, n),
		events:    make([]atomic.Uint64, n),
		activeW:   make([]atomic.Uint64, n),
		mail:      make([]atomic.Uint64, n*n),
	}
}

// addMail records cnt cross-partition events published from partition
// `from` to partition `to`. Coordinator only (called at mailbox flip).
func (s *ParallelStats) addMail(from, to, cnt int) {
	if from < 0 || from >= s.n || to < 0 || to >= s.n {
		return
	}
	s.mail[from*s.n+to].Add(uint64(cnt))
}

// SetCut records the partition cut: the number of cross-partition
// links and their total affinity weight. Setup time only.
func (s *ParallelStats) SetCut(links int, weight float64) {
	s.cutLinks = links
	s.cutWeight = weight
}

// noteWidth folds one window's width (virtual ps) into the geometry
// accounting. Coordinator only, once per dispatched window. Unbounded
// fast-forward windows (width pinned at maxTime) count as wide but stay
// out of the mean, which would otherwise overflow and say nothing.
func (s *ParallelStats) noteWidth(w, look Time) {
	if w > 2*look {
		s.wideWindows.Add(1)
	}
	if w < maxTime/2 {
		s.widthSum.Add(int64(w))
		s.widthSamples.Add(1)
	}
}

// resetWindow clears the per-window scratch slots. Coordinator only,
// before dispatching a window.
func (s *ParallelStats) resetWindow() {
	for i := range s.winBusy {
		s.winBusy[i] = 0
		s.winEvents[i] = 0
	}
}

// noteWindow folds one completed window into the cumulative accounting.
// Coordinator only, after every dispatched worker has reported done.
func (s *ParallelStats) noteWindow(active []bool) {
	var max int64
	for i, a := range active {
		if a && s.winBusy[i] > max {
			max = s.winBusy[i]
		}
	}
	s.windows.Add(1)
	s.span.Add(max)
	for i, a := range active {
		if !a {
			continue
		}
		b := s.winBusy[i]
		s.busy[i].Add(b)
		s.barrier[i].Add(max - b)
		s.events[i].Add(s.winEvents[i])
		s.activeW[i].Add(1)
	}
}

// PartitionSummary is one partition's share of a run.
type PartitionSummary struct {
	Partition     int     `json:"partition"`
	Events        uint64  `json:"events"`
	BusyMS        float64 `json:"busy_ms"`
	BarrierWaitMS float64 `json:"barrier_wait_ms"`
	ActiveWindows uint64  `json:"active_windows"`
}

// ParallelSummary is the renderable form of ParallelStats. Wall-clock
// quantities are nondeterministic by nature; determinism gates must
// exclude them.
type ParallelSummary struct {
	Partitions []PartitionSummary `json:"partitions"`
	Windows    uint64             `json:"windows"`
	// SpanMS is the critical-path wall time: per window, the slowest
	// partition's busy time, summed.
	SpanMS float64 `json:"span_ms"`
	// SerialMS is wall time in the coordinator's serial sections
	// (mailbox flips, horizon search, barrier hooks are separate).
	SerialMS float64 `json:"serial_ms"`
	// Occupancy is total busy time over span × partitions: 1.0 means
	// every partition worked the whole window, every window.
	Occupancy float64 `json:"occupancy"`
	// Imbalance is max over mean cumulative partition busy time; 1.0 is
	// a perfectly balanced cut.
	Imbalance float64 `json:"imbalance"`
	// MailboxPosts[i][j] counts cross-partition events partition i
	// published toward partition j.
	MailboxPosts [][]uint64 `json:"mailbox_posts"`

	// CutLinks and CutWeight describe the partition cut (see
	// ParallelStats.SetCut); zero values when the deriving layer did
	// not report them.
	CutLinks  int     `json:"cut_links,omitempty"`
	CutWeight float64 `json:"cut_weight,omitempty"`

	// DirtyFlips counts mailbox flips the coordinator performed; a full
	// matrix scan would have paid Windows × Partitions² of them.
	DirtyFlips uint64 `json:"dirty_flips"`
	// WideWindows counts windows adaptively widened past twice the
	// global lookahead; MeanWindowNs is the mean width of bounded
	// windows in virtual nanoseconds.
	WideWindows  uint64  `json:"wide_windows"`
	MeanWindowNs float64 `json:"mean_window_ns"`
}

const nsPerMS = 1e6

// Summary renders the current accounting. Safe to call concurrently
// with a run; mid-run reads see a consistent-enough snapshot (each
// field individually atomic).
func (s *ParallelStats) Summary() ParallelSummary {
	out := ParallelSummary{
		Windows:  s.windows.Load(),
		SpanMS:   float64(s.span.Load()) / nsPerMS,
		SerialMS: float64(s.serial.Load()) / nsPerMS,
	}
	var totalBusy, maxBusy int64
	for i := 0; i < s.n; i++ {
		b := s.busy[i].Load()
		totalBusy += b
		if b > maxBusy {
			maxBusy = b
		}
		out.Partitions = append(out.Partitions, PartitionSummary{
			Partition:     i,
			Events:        s.events[i].Load(),
			BusyMS:        float64(b) / nsPerMS,
			BarrierWaitMS: float64(s.barrier[i].Load()) / nsPerMS,
			ActiveWindows: s.activeW[i].Load(),
		})
	}
	if mean := float64(totalBusy) / float64(s.n); mean > 0 {
		out.Imbalance = float64(maxBusy) / mean
	}
	if span := s.span.Load(); span > 0 {
		out.Occupancy = float64(totalBusy) / (float64(span) * float64(s.n))
	}
	out.MailboxPosts = make([][]uint64, s.n)
	for i := 0; i < s.n; i++ {
		row := make([]uint64, s.n)
		for j := 0; j < s.n; j++ {
			row[j] = s.mail[i*s.n+j].Load()
		}
		out.MailboxPosts[i] = row
	}
	out.CutLinks = s.cutLinks
	out.CutWeight = s.cutWeight
	out.DirtyFlips = s.dirtyFlips.Load()
	out.WideWindows = s.wideWindows.Load()
	if n := s.widthSamples.Load(); n > 0 {
		out.MeanWindowNs = float64(s.widthSum.Load()) / float64(n) / 1e3
	}
	return out
}
