// Package coherency implements the MESI cache-coherence protocol with
// Opteron-style broadcast probes. It is the scalability foil of the
// paper's argument (§I, §III): every miss or upgrade probes every other
// node and must collect all responses before completing, so probe
// traffic and worst-case probe latency grow with node count. Experiment
// E5 sweeps this cost against TCCluster's constant per-message cost.
// The receive-side hazard of the non-coherent fabric — an arriving
// write invalidates no cached copy (§VI) — is modelled by the CPU cache
// (internal/cpu), not here.
package coherency

import (
	"fmt"

	"repro/internal/sim"
)

// State is a MESI line state.
type State int

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Modified:
		return "M"
	case Exclusive:
		return "E"
	case Shared:
		return "S"
	default:
		return "I"
	}
}

// Params are the latency components of coherent transactions.
type Params struct {
	CacheHit     sim.Time // local hit, no fabric traffic
	ProbePerHop  sim.Time // one probe hop on the coherent fabric
	ProbeProcess sim.Time // remote cache lookup + response generation
	MemLatency   sim.Time // DRAM access at the home node
}

// DefaultParams mirrors the host-interface numbers from the paper's
// introduction: ~50 ns per hop, DRAM in the tens of ns.
func DefaultParams() Params {
	return Params{
		CacheHit:     5 * sim.Nanosecond,
		ProbePerHop:  50 * sim.Nanosecond,
		ProbeProcess: 20 * sim.Nanosecond,
		MemLatency:   55 * sim.Nanosecond,
	}
}

// AccessResult describes one coherent access.
type AccessResult struct {
	Hit        bool
	ProbesSent int      // probe packets put on the fabric
	Latency    sim.Time // completion latency including probe gathering
	State      State    // requester's line state afterwards
}

// Stats aggregates domain-wide counters.
type Stats struct {
	Reads           uint64
	Writes          uint64
	Hits            uint64
	ProbesSent      uint64
	Invalidations   uint64
	WritebacksToMem uint64
}

// HopsFunc returns the fabric distance between two nodes of the domain;
// probe latency scales with the farthest responder. A nil HopsFunc
// means a fully connected domain (1 hop everywhere), the 2-4 socket
// case.
type HopsFunc func(a, b int) int

// Domain is a set of caches kept coherent by broadcast MESI.
type Domain struct {
	n     int
	par   Params
	hops  HopsFunc
	lines map[uint64][]State // line -> per-node state
	stats Stats
}

// NewDomain creates a coherent domain of n caching nodes.
func NewDomain(n int, par Params, hops HopsFunc) *Domain {
	if n < 1 {
		panic("coherency: domain needs at least one node")
	}
	return &Domain{n: n, par: par, hops: hops, lines: make(map[uint64][]State)}
}

// N returns the number of nodes in the domain.
func (d *Domain) N() int { return d.n }

// Stats returns a copy of the counters.
func (d *Domain) Stats() Stats { return d.stats }

// StateOf returns node's state for line.
func (d *Domain) StateOf(node int, line uint64) State {
	if s, ok := d.lines[line]; ok {
		return s[node]
	}
	return Invalid
}

func (d *Domain) states(line uint64) []State {
	s, ok := d.lines[line]
	if !ok {
		s = make([]State, d.n)
		d.lines[line] = s
	}
	return s
}

func (d *Domain) distance(a, b int) int {
	if d.hops == nil {
		return 1
	}
	return d.hops(a, b)
}

// probeAll broadcasts probes from node and returns (count, gather
// latency): the transaction completes only when the farthest responder
// has answered — "the last incoming response [is] pivotal" (§III).
func (d *Domain) probeAll(node int) (int, sim.Time) {
	if d.n == 1 {
		return 0, 0
	}
	var worst sim.Time
	for peer := 0; peer < d.n; peer++ {
		if peer == node {
			continue
		}
		rtt := sim.Time(2*d.distance(node, peer))*d.par.ProbePerHop + d.par.ProbeProcess
		if rtt > worst {
			worst = rtt
		}
	}
	probes := d.n - 1
	d.stats.ProbesSent += uint64(probes)
	return probes, worst
}

// Read performs a coherent load by node on line.
func (d *Domain) Read(node int, line uint64) AccessResult {
	d.stats.Reads++
	s := d.states(line)
	if s[node] != Invalid {
		d.stats.Hits++
		return AccessResult{Hit: true, Latency: d.par.CacheHit, State: s[node]}
	}
	probes, gather := d.probeAll(node)
	// A Modified or Exclusive peer supplies the data and degrades to
	// Shared (Opteron cache-to-cache transfer); a dirty line is written
	// back on the way.
	shared := false
	for peer := 0; peer < d.n; peer++ {
		if peer == node {
			continue
		}
		switch s[peer] {
		case Modified:
			d.stats.WritebacksToMem++
			s[peer] = Shared
			shared = true
		case Exclusive:
			s[peer] = Shared
			shared = true
		case Shared:
			shared = true
		}
	}
	if shared {
		s[node] = Shared
	} else {
		s[node] = Exclusive
	}
	lat := d.par.MemLatency + gather
	if lat < d.par.CacheHit {
		lat = d.par.CacheHit
	}
	return AccessResult{ProbesSent: probes, Latency: lat, State: s[node]}
}

// Write performs a coherent store by node on line.
func (d *Domain) Write(node int, line uint64) AccessResult {
	d.stats.Writes++
	s := d.states(line)
	if s[node] == Modified {
		d.stats.Hits++
		return AccessResult{Hit: true, Latency: d.par.CacheHit, State: Modified}
	}
	if s[node] == Exclusive {
		// Silent E->M upgrade, no fabric traffic.
		d.stats.Hits++
		s[node] = Modified
		return AccessResult{Hit: true, Latency: d.par.CacheHit, State: Modified}
	}
	probes, gather := d.probeAll(node)
	for peer := 0; peer < d.n; peer++ {
		if peer == node {
			continue
		}
		if s[peer] != Invalid {
			if s[peer] == Modified {
				d.stats.WritebacksToMem++
			}
			s[peer] = Invalid
			d.stats.Invalidations++
		}
	}
	miss := s[node] == Invalid
	s[node] = Modified
	lat := gather
	if miss {
		lat += d.par.MemLatency
	}
	if lat < d.par.CacheHit {
		lat = d.par.CacheHit
	}
	return AccessResult{ProbesSent: probes, Latency: lat, State: Modified}
}

// Evict drops node's copy, writing back if dirty.
func (d *Domain) Evict(node int, line uint64) {
	s := d.states(line)
	if s[node] == Modified {
		d.stats.WritebacksToMem++
	}
	s[node] = Invalid
}

// CheckInvariants verifies the MESI safety properties across all lines:
// at most one Modified-or-Exclusive owner, and an owner excludes any
// other valid copy (single-writer / multiple-reader).
func (d *Domain) CheckInvariants() error {
	for line, s := range d.lines {
		owners, sharers := 0, 0
		for _, st := range s {
			switch st {
			case Modified, Exclusive:
				owners++
			case Shared:
				sharers++
			}
		}
		if owners > 1 {
			return fmt.Errorf("coherency: line %#x has %d M/E owners", line, owners)
		}
		if owners == 1 && sharers > 0 {
			return fmt.Errorf("coherency: line %#x has an owner and %d sharers", line, sharers)
		}
	}
	return nil
}
