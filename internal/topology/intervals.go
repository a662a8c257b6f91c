package topology

import (
	"fmt"

	"repro/internal/errs"
)

// Interval is a contiguous run of destination nodes [Lo, Hi] routed out
// of one port. In the TCCluster address map each interval becomes one
// MMIO base/limit register pair (paper §IV.C/D).
type Interval struct {
	Lo, Hi int // destination node indices, inclusive
	Port   int
}

// Intervals computes, for one node, the decomposition of all remote
// destinations into maximal contiguous runs sharing an egress port.
// Fewer intervals = fewer MMIO register pairs consumed.
func (t *Topology) Intervals(node int) []Interval {
	var out []Interval
	for dst := 0; dst < t.n; dst++ {
		if dst == node {
			continue
		}
		port := t.NextHop(node, dst)
		if len(out) > 0 {
			last := &out[len(out)-1]
			if last.Port == port && last.Hi == dst-1 {
				last.Hi = dst
				continue
			}
		}
		out = append(out, Interval{Lo: dst, Hi: dst, Port: port})
	}
	return out
}

// MaxIntervals returns the largest interval count any node needs.
func (t *Topology) MaxIntervals() int {
	m := 0
	for node := 0; node < t.n; node++ {
		if c := len(t.Intervals(node)); c > m {
			m = c
		}
	}
	return m
}

// CheckIntervalRoutable verifies every node's routing fits in maxRanges
// MMIO register pairs. The Opteron has 8 pairs; TCCluster configurations
// reserve one for real IO (southbridge/APIC space), leaving 7.
func (t *Topology) CheckIntervalRoutable(maxRanges int) error {
	_, err := t.RoutableIntervals(maxRanges)
	return err
}

// RoutableIntervals returns every node's Intervals, indexed by node, or
// the CheckIntervalRoutable error for the first node that needs more
// than maxRanges of them.
func (t *Topology) RoutableIntervals(maxRanges int) ([][]Interval, error) {
	all := make([][]Interval, t.n)
	for node := range all {
		all[node] = t.Intervals(node)
		if c := len(all[node]); c > maxRanges {
			return nil, fmt.Errorf("topology: node %d needs %d address intervals, northbridge has %d MMIO ranges: %w",
				node, c, maxRanges, errs.ErrUnroutable)
		}
	}
	return all, nil
}

// Validate checks that routing is total and loop-free: every ordered
// pair (src, dst) reaches dst within n hops. On failure it names the
// first failing pair in row-major (src, then dst) order.
//
// Routing is a function of (current node, destination), so all routes
// toward one destination form a forest: Validate resolves each
// destination once, marking nodes known to reach it, known not to, or
// on the walk in progress (a revisit is a loop). Every node asks
// NextHop toward a destination at most once, n(n-1) calls in all,
// instead of once per hop of every route.
func (t *Topology) Validate() error {
	const (
		unknown = iota
		onPath
		good
		bad
	)
	mark := make([]uint8, t.n)
	var path []int
	failSrc, failDst := t.n, -1
	for d := 0; d < t.n; d++ {
		clear(mark)
		mark[d] = good
		// Only a source below the best failing one so far can change
		// the answer, and the first bad source is the one to report.
		for s := 0; s < t.n && s < failSrc; s++ {
			path = path[:0]
			cur := s
			for mark[cur] == unknown {
				mark[cur] = onPath
				path = append(path, cur)
				port := t.NextHop(cur, d)
				if port < 0 {
					break
				}
				if cur = t.Peer(cur, port); cur < 0 {
					break
				}
			}
			// The walk reached d or a node known to reach it, or else
			// dead-ended, met a known failure or came back on itself.
			state := uint8(bad)
			if cur >= 0 && mark[cur] == good {
				state = good
			}
			for _, v := range path {
				mark[v] = state
			}
			if mark[s] == bad {
				failSrc, failDst = s, d
			}
		}
	}
	if failDst >= 0 {
		return fmt.Errorf("topology: routing from %d to %d loops or dead-ends: %w",
			failSrc, failDst, errs.ErrUnroutable)
	}
	return nil
}

// DeadlockFree checks the channel-dependency graph of the routing for
// cycles. Each directed link is a channel; routing dst traffic from
// channel (u->v) into channel (v->w) adds a dependency edge. TCCluster
// traffic is single-VC posted writes, so an acyclic dependency graph is
// required for deadlock freedom (dimension-order meshes pass; shortest-
// arc rings fail, which is why the paper's scaling argument uses
// meshes).
func (t *Topology) DeadlockFree() (bool, error) {
	if err := t.Validate(); err != nil {
		return false, err
	}
	type channel struct{ u, v int }
	deps := make(map[channel]map[channel]bool)
	addDep := func(a, b channel) {
		if deps[a] == nil {
			deps[a] = make(map[channel]bool)
		}
		deps[a][b] = true
	}
	for src := 0; src < t.n; src++ {
		for dst := 0; dst < t.n; dst++ {
			if src == dst {
				continue
			}
			cur := src
			var prev *channel
			for cur != dst {
				next := t.Peer(cur, t.NextHop(cur, dst))
				ch := channel{cur, next}
				if prev != nil {
					addDep(*prev, ch)
				}
				p := ch
				prev = &p
				cur = next
			}
		}
	}
	// Cycle detection via iterative DFS with colors.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[channel]int)
	var chans []channel
	for ch := range deps {
		chans = append(chans, ch)
	}
	var visit func(ch channel) bool
	visit = func(ch channel) bool {
		color[ch] = gray
		for next := range deps[ch] {
			switch color[next] {
			case gray:
				return false
			case white:
				if !visit(next) {
					return false
				}
			}
		}
		color[ch] = black
		return true
	}
	for _, ch := range chans {
		if color[ch] == white {
			if !visit(ch) {
				return false, nil
			}
		}
	}
	return true, nil
}

// CheckDeadlockFree is the error-typed form of DeadlockFree: it returns
// nil for an acyclic channel-dependency graph and an error wrapping
// errs.ErrDeadlockTopology (or the underlying validation failure) when
// single-VC posted traffic over this routing could deadlock.
func (t *Topology) CheckDeadlockFree() error {
	ok, err := t.DeadlockFree()
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("topology: %s has a cyclic channel-dependency graph: %w",
			t.name, errs.ErrDeadlockTopology)
	}
	return nil
}

// ---- physical constraints (paper §IV.F) --------------------------------

// Medium is the physical transport of a TCCluster link.
type Medium int

const (
	// FR4 is standard PCB material: 24-inch trace limit.
	FR4 Medium = iota
	// Coax cables tolerate roughly twice the FR4 reach.
	Coax
)

// MaxTraceInches returns the signal-integrity length limit of a medium.
func (m Medium) MaxTraceInches() float64 {
	if m == Coax {
		return 48
	}
	return 24
}

func (m Medium) String() string {
	if m == Coax {
		return "coax"
	}
	return "FR4"
}

// PhysicalModel captures the backplane geometry: the center-to-center
// spacing of adjacent blades and of stacked rows.
type PhysicalModel struct {
	BladePitchInches float64 // horizontal spacing (x axis)
	RowPitchInches   float64 // vertical spacing (y axis)
	Medium           Medium
}

// DefaultPhysicalModel models a blade rack: ~1.2" blade pitch, ~7" row
// (2U chassis) pitch, FR4 backplane.
func DefaultPhysicalModel() PhysicalModel {
	return PhysicalModel{BladePitchInches: 1.2, RowPitchInches: 7, Medium: FR4}
}

// LinkLengthInches returns the Manhattan backplane distance of the link
// between nodes a and b.
func (pm PhysicalModel) LinkLengthInches(t *Topology, a, b int) float64 {
	ax, ay := t.Position(a)
	bx, by := t.Position(b)
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return float64(dx)*pm.BladePitchInches + float64(dy)*pm.RowPitchInches
}

// MaxLinkLengthInches returns the longest link in the topology under
// this placement.
func (pm PhysicalModel) MaxLinkLengthInches(t *Topology) float64 {
	longest := 0.0
	for node := 0; node < t.N(); node++ {
		for _, nb := range t.Neighbors(node) {
			if nb.Peer < node {
				continue
			}
			if l := pm.LinkLengthInches(t, node, nb.Peer); l > longest {
				longest = l
			}
		}
	}
	return longest
}

// CheckPhysical verifies every link respects the medium's trace-length
// limit. A chain placed along one rack row violates FR4 quickly; the
// paper's balanced n x n blade arrangement does not.
func (pm PhysicalModel) CheckPhysical(t *Topology) error {
	limit := pm.Medium.MaxTraceInches()
	for node := 0; node < t.N(); node++ {
		for _, nb := range t.Neighbors(node) {
			if nb.Peer < node {
				continue
			}
			if l := pm.LinkLengthInches(t, node, nb.Peer); l > limit {
				return fmt.Errorf("topology: link %d-%d is %.1f inches, %v limit is %.0f: %w",
					node, nb.Peer, l, pm.Medium, limit, errs.ErrBadConfig)
			}
		}
	}
	return nil
}
