// Package core assembles complete TCCluster systems: given an
// interconnect topology it instantiates supernodes (sockets, cores,
// memory), wires HyperTransport links — internal coherent links,
// southbridges, and external TCCluster links — derives each board's
// interval-routed address map, runs the firmware boot sequence, and
// hands back per-node handles that the kernel, message-library and
// benchmark layers drive.
package core

import (
	"repro/internal/cpu"
	"repro/internal/ht"
	"repro/internal/nb"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Calibration constants. Every timing number in the simulation descends
// from these defaults; DESIGN.md §5 documents how they compose into the
// paper's headline numbers (227 ns half-RTT, ~2700 MB/s sustained).
const (
	// DefaultMemPerNode is each supernode's DRAM slice. The paper's
	// boards carried 8 GB; the default is smaller to keep simulations
	// light, and is configurable up to the 256 TB / 48-bit bound.
	DefaultMemPerNode = 256 << 20

	// DefaultUCWindow is the uncachable receive window at the base of
	// each node's memory, where all message ring buffers live.
	DefaultUCWindow = 4 << 20

	// DefaultCableFlight is the propagation delay of the HTX cable
	// (~1 m of cable at ~5 ns/m plus connectors).
	DefaultCableFlight = 8 * sim.Nanosecond

	// DefaultLinkSpeed matches the prototype's signal-integrity limit:
	// HT800, 1.6 Gbit/s per lane (§VI). Backplane designs can run
	// HT2400/HT2600.
	DefaultLinkSpeed = ht.HT800

	// DefaultLinkWidth is the full 16-lane link.
	DefaultLinkWidth = 16
)

// Config describes a cluster to build.
type Config struct {
	// MemPerNode is bytes of DRAM per supernode (16 MB granular,
	// divisible by SocketsPerNode at 16 MB granularity).
	MemPerNode uint64
	// SocketsPerNode: 1 models the paper's prototype boards; 2-8 build
	// supernodes whose sockets are chained by coherent links (§IV.E).
	SocketsPerNode int
	// CoresPerSocket instantiates multiple cores per socket (Shanghai is
	// a quad-core). Cores share their socket's system request queue and
	// crossbar, so concurrent senders contend for the same TCCluster
	// link exactly as threads on one package would.
	CoresPerSocket int
	// LinkSpeed and LinkWidth configure external TCCluster links.
	LinkSpeed ht.Speed
	LinkWidth int
	// CableFlight is the external-link propagation delay.
	CableFlight sim.Time
	// CableErrorRate injects signal-integrity faults on external links:
	// the probability that one packet's serialization is corrupted and
	// must be replayed (HT link-level retry). The paper's HTX cable is
	// exactly this tradeoff — it could not run above HT800 cleanly (§VI).
	CableErrorRate float64
	// UCWindow is the per-node uncachable receive window.
	UCWindow uint64
	// NBParams and CPUParams override the hardware models' defaults.
	NBParams  nb.Params
	CPUParams cpu.Params
	// Seed perturbs every stochastic model in the cluster (currently the
	// per-cable fault streams). Two clusters built from identical
	// configurations — including Seed — evolve identically; this is the
	// determinism contract the trace-replay regression test pins down.
	// Seed zero reproduces the historical default streams.
	Seed uint64
	// Tracer, when non-nil, receives observability events from every
	// layer: link packet serializations, credit stalls, northbridge
	// routing faults, firmware boot phases, and (through the kernel) the
	// message and MPI layers. Nil disables tracing at zero cost beyond a
	// nil check per potential emission.
	Tracer trace.Tracer
	// LegacyEventQueue runs the simulator on the original container/heap
	// event queue instead of the ladder queue. Both produce identical
	// virtual-time results; this exists only as the determinism oracle
	// (TestLadderMatchesLegacyOnAllExampleTopologies).
	LegacyEventQueue bool
	// Profiler, when non-nil, receives packet-lifecycle phase
	// observations from every instrumented layer (link queue/retry/
	// serialization, northbridge pipeline, memory controller, CPU store
	// path) and — on parallel runs — the PDES runtime accounting. The
	// profiler is attached after firmware boot, so the latency budget
	// covers workload traffic only. Nil disables profiling at zero cost
	// beyond a nil check per potential observation.
	Profiler *prof.Profiler
	// Parallel splits the cluster across up to this many worker
	// goroutines after boot: a greedy graph-cut over the external-link
	// graph groups supernodes into partitions, synchronized by a
	// conservative time-windowed barrier whose lookahead is the minimum
	// cross-partition link latency. 0 or 1 runs the reference serial
	// engine. Parallel runs are bit-exact with serial runs: the same
	// final virtual time, per-link counters and workload output.
	Parallel int
}

// DefaultConfig returns the prototype-faithful configuration.
func DefaultConfig() Config {
	return Config{
		MemPerNode:     DefaultMemPerNode,
		SocketsPerNode: 1,
		CoresPerSocket: 1,
		LinkSpeed:      DefaultLinkSpeed,
		LinkWidth:      DefaultLinkWidth,
		CableFlight:    DefaultCableFlight,
		UCWindow:       DefaultUCWindow,
		NBParams:       nb.DefaultParams(),
		CPUParams:      cpu.DefaultParams(),
	}
}
