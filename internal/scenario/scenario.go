// Package scenario is TCCluster's declarative experiment layer: one
// versioned, serializable spec describing everything a run needs —
// topology, hardware configuration, workload mix, fault campaign,
// monitoring, tracing, seed and parallelism — plus the lowering that
// turns a spec into a booted cluster and a runnable workload through
// the root package's functional-options API.
//
// A Scenario replaces the hand-coded Go main: the seven programs under
// examples/ are thin wrappers around embedded specs, cmd/tccrun
// executes spec files and parameter-sweep grids, and tests pin the
// serial/parallel determinism of whole scenario runs. The JSON form is
// strict — unknown fields and unsupported versions are rejected — so an
// archived spec either reproduces its run exactly or fails loudly.
//
// Validation is lowering. Validate turns the spec into the topology,
// config, fault actions, serve configs and traffic patterns Build would
// use, then hands each to the check of the layer that owns its rules.
// The package keeps only the rules no other layer knows: the schema
// itself, the workload registry, and where the fault-recovery channel
// sits. The socket port budget is found while wiring, so it stays a
// boot-time error.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/fault"
)

// SpecVersion is the scenario schema version this package reads and
// writes. Parse rejects anything else: a spec is an archival artifact,
// and silently reinterpreting an old one would un-reproduce its run.
const SpecVersion = 1

// Scenario fully describes one run. The zero value is not runnable;
// start from Default or Parse.
type Scenario struct {
	// Version must equal SpecVersion.
	Version int `json:"version"`
	// Name labels the run in output and archive filenames.
	Name string `json:"name"`
	// Topology selects the interconnect shape.
	Topology TopologySpec `json:"topology"`
	// Config overrides hardware defaults; nil keeps DefaultConfig.
	Config *ConfigSpec `json:"config,omitempty"`
	// Workloads run in order on one shared cluster. A standalone
	// workload (one that manages its own clusters, like the failure
	// tour) must be the only entry.
	Workloads []WorkloadSpec `json:"workloads"`
	// Faults is the scripted fault campaign (WithFaults vocabulary).
	Faults []FaultSpec `json:"faults,omitempty"`
	// Monitor enables the live-monitoring subsystem.
	Monitor *MonitorSpec `json:"monitor,omitempty"`
	// Trace installs a bounded trace collector and optionally exports
	// the events after the run.
	Trace *TraceSpec `json:"trace,omitempty"`
	// Profile enables the simulation profiler (WithProfile): the run's
	// Result carries the per-phase latency budget and, on parallel
	// runs, the PDES accounting.
	Profile *ProfileSpec `json:"profile,omitempty"`
	// Seed perturbs the cluster's stochastic models.
	Seed uint64 `json:"seed,omitempty"`
	// Parallel is the partition worker count (0 or 1 = serial; results
	// are identical either way).
	Parallel int `json:"parallel,omitempty"`
	// Sweep, when present, expands this scenario into a grid of cells
	// (see Cells). The swept fields override the base values above.
	Sweep *Sweep `json:"sweep,omitempty"`
}

// TopologySpec names one of the topology constructors plus its sizing
// parameters.
type TopologySpec struct {
	// Kind is chain | ring | mesh | torus | full | hypercube.
	Kind string `json:"kind"`
	// Nodes sizes chain, ring and full.
	Nodes int `json:"nodes,omitempty"`
	// Width and Height size mesh and torus.
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`
	// Dim sizes hypercube (2^Dim nodes).
	Dim int `json:"dim,omitempty"`
}

// ConfigSpec overrides a subset of the hardware Config plus the kernel
// selection. Zero-valued fields keep the defaults.
type ConfigSpec struct {
	SocketsPerNode int     `json:"sockets_per_node,omitempty"`
	CoresPerSocket int     `json:"cores_per_socket,omitempty"`
	LinkSpeedMHz   int     `json:"link_speed_mhz,omitempty"`
	LinkWidth      int     `json:"link_width,omitempty"`
	CableErrorRate float64 `json:"cable_error_rate,omitempty"`
	CableFlightNS  int64   `json:"cable_flight_ns,omitempty"`
	MemPerNodeMB   int     `json:"mem_per_node_mb,omitempty"`
	// SMCDisabled selects the kernel: nil or true is the paper's custom
	// kernel, false the stock kernel that leaks SMC broadcasts.
	SMCDisabled *bool `json:"smc_disabled,omitempty"`
}

// WorkloadSpec names one workload kind plus its parameter block. Only
// the block matching Kind may be set; all blocks are optional (nil
// runs the kind's defaults, which reproduce the original example).
type WorkloadSpec struct {
	// Kind is pingpong | allreduce | cg | heat2d | pgas | ringshift |
	// collectives | failure-tour | fault-recovery | serve.
	Kind string `json:"kind"`

	Pingpong      *PingpongParams      `json:"pingpong,omitempty"`
	Ringshift     *RingshiftParams     `json:"ringshift,omitempty"`
	Allreduce     *AllreduceParams     `json:"allreduce,omitempty"`
	CG            *CGParams            `json:"cg,omitempty"`
	Heat2D        *Heat2DParams        `json:"heat2d,omitempty"`
	PGAS          *PGASParams          `json:"pgas,omitempty"`
	Collectives   *CollectivesParams   `json:"collectives,omitempty"`
	FailureTour   *FailureTourParams   `json:"failure_tour,omitempty"`
	FaultRecovery *FaultRecoveryParams `json:"fault_recovery,omitempty"`
	Serve         *ServeParams         `json:"serve,omitempty"`
}

// PingpongParams shape the quickstart echo workload.
type PingpongParams struct {
	// Rounds is the number of ping-pong exchanges (default 8).
	Rounds int `json:"rounds,omitempty"`
}

// RingshiftParams shape the neighbor-ring shift workload: one channel
// per node to its successor, lockstep receive-fold-forward steps. The
// only scenario workload that spans every node without an all-pairs
// channel fabric, so it is the one to reach for on large tori.
type RingshiftParams struct {
	// Steps is the shift count per rank (default 4).
	Steps int `json:"steps,omitempty"`
	// Payload is the block size in bytes (default 64).
	Payload int `json:"payload,omitempty"`
}

// AllreduceParams shape the distributed-statistics workload.
type AllreduceParams struct {
	// PointsPerRank is the sample-shard size (default 100000).
	PointsPerRank int `json:"points_per_rank,omitempty"`
}

// CGParams shape the conjugate-gradient solver.
type CGParams struct {
	// LocalN is the unknowns per rank (default 32).
	LocalN int `json:"local_n,omitempty"`
	// MaxIters bounds the iteration count (default 200).
	MaxIters int `json:"max_iters,omitempty"`
	// Tol is the convergence threshold on ||r|| (default 1e-10).
	Tol float64 `json:"tol,omitempty"`
}

// Heat2DParams shape the Jacobi heat-diffusion workload.
type Heat2DParams struct {
	// Width is the column count (default 48).
	Width int `json:"width,omitempty"`
	// RowsPerRank is the interior rows per rank (default 12).
	RowsPerRank int `json:"rows_per_rank,omitempty"`
	// Steps is the Jacobi step count (default 12).
	Steps int `json:"steps,omitempty"`
}

// PGASParams shape the block-rotation workload.
type PGASParams struct {
	// BlockSize is bytes rotated per round (default 4096).
	BlockSize int `json:"block_size,omitempty"`
	// Rounds is the rotation count (default: the node count, a full
	// circle).
	Rounds int `json:"rounds,omitempty"`
}

// CollectivesParams shape the cluster16-style fabric shakedown: MPI
// collectives timed across every rank, then raw traffic patterns.
type CollectivesParams struct {
	// VectorDoubles is the allreduce vector length (default 256).
	VectorDoubles int `json:"vector_doubles,omitempty"`
	// BcastBytes is the broadcast payload (default 1024).
	BcastBytes int `json:"bcast_bytes,omitempty"`
	// Traffic lists the raw traffic patterns to drive afterwards.
	Traffic []TrafficSpec `json:"traffic,omitempty"`
}

// TrafficSpec names one synthetic traffic pattern.
type TrafficSpec struct {
	// Pattern is nearest-neighbor | transpose | hotspot | uniform-random.
	Pattern string `json:"pattern"`
	// Width is the transpose mesh width (default: the topology width).
	Width int `json:"width,omitempty"`
	// Target is the hotspot destination node.
	Target int `json:"target,omitempty"`
	// Seed drives uniform-random destination draws.
	Seed uint64 `json:"seed,omitempty"`
	// FlowsPerNode is flows issued per source (default 1).
	FlowsPerNode int `json:"flows_per_node,omitempty"`
	// BytesPerFlow is the posted-store bytes per flow (default 16384).
	BytesPerFlow int `json:"bytes_per_flow,omitempty"`
}

// FailureTourParams shape the guided failure tour (examples/failures).
// The tour is standalone: it builds its own clusters from the
// scenario's topology and config base.
type FailureTourParams struct {
	// LossyRates is the cable error-rate sweep of scene 4
	// (default 0, 0.01, 0.05, 0.20).
	LossyRates []float64 `json:"lossy_rates,omitempty"`
}

// FaultRecoveryParams shape the fault-recovery workload: a reliable
// channel rides out the scenario's fault campaign while a posted-store
// stream crosses a degraded link.
type FaultRecoveryParams struct {
	// Messages is the reliable-channel message count (default 60).
	Messages int `json:"messages,omitempty"`
	// Stores is the posted-store count (default 80).
	Stores int `json:"stores,omitempty"`
	// AckTimeoutNS is the reliable channel's ack timeout (default 20us).
	AckTimeoutNS int64 `json:"ack_timeout_ns,omitempty"`
	// RunForNS bounds the run (default 6ms of virtual time).
	RunForNS int64 `json:"run_for_ns,omitempty"`
	// SrcRank/DstRank place the reliable channel (default 2 -> 3).
	SrcRank int `json:"src_rank,omitempty"`
	DstRank int `json:"dst_rank,omitempty"`
}

// FaultSpec is the serializable form of one fault action.
type FaultSpec struct {
	// Kind is link-degrade | link-down | link-flap | retrain-storm |
	// node-crash.
	Kind string `json:"kind"`
	// Link targets link-scoped kinds (external link index).
	Link int `json:"link,omitempty"`
	// Node targets node-crash.
	Node int `json:"node,omitempty"`
	// AtNS is the absolute virtual start time.
	AtNS int64 `json:"at_ns"`
	// ForNS is the duration; 0 means permanent (down, crash, degrade).
	ForNS int64 `json:"for_ns,omitempty"`
	// Rate is the degrade CRC error rate, in (0,1).
	Rate float64 `json:"rate,omitempty"`
	// PenaltyNS is the degrade replay penalty (0 = link default).
	PenaltyNS int64 `json:"penalty_ns,omitempty"`
	// Count is the flap / retrain-storm repetition count.
	Count int `json:"count,omitempty"`
	// PeriodNS is the flap / retrain-storm period.
	PeriodNS int64 `json:"period_ns,omitempty"`
}

// MonitorSpec enables WithMonitor.
type MonitorSpec struct {
	// Addr is the HTTP listen address; empty samples without serving.
	Addr string `json:"addr,omitempty"`
	// SampleEveryNS is the sampling-window width (default 100us).
	SampleEveryNS int64 `json:"sample_every_ns,omitempty"`
	// Windows bounds the flight recorder's retained windows.
	Windows int `json:"windows,omitempty"`
	// AutoDump dumps the flight recorder here on any alert.
	AutoDump string `json:"auto_dump,omitempty"`
}

// TraceSpec installs a trace collector.
type TraceSpec struct {
	// Buffer is the collector capacity (default 65536).
	Buffer int `json:"buffer,omitempty"`
	// Format is chrome | csv (default chrome), used when Output is set.
	Format string `json:"format,omitempty"`
	// Output writes the collected events here after the run.
	Output string `json:"output,omitempty"`
}

// ProfileSpec enables WithProfile.
type ProfileSpec struct {
	// Spans additionally emits per-packet phase spans into the tracer
	// (requires a trace block to land anywhere).
	Spans bool `json:"spans,omitempty"`
}

// Sweep expands a scenario into a grid: the cross product of every
// non-empty axis. Nodes resizes the topology (chain/ring/full only),
// Parallel and Seeds override the scenario fields of the same name.
type Sweep struct {
	Nodes    []int    `json:"nodes,omitempty"`
	Parallel []int    `json:"parallel,omitempty"`
	Seeds    []uint64 `json:"seeds,omitempty"`
}

// Default returns a minimal runnable scenario: the paper's two-board
// prototype under the quickstart ping-pong.
func Default() *Scenario {
	return &Scenario{
		Version:   SpecVersion,
		Name:      "quickstart",
		Topology:  TopologySpec{Kind: "chain", Nodes: 2},
		Workloads: []WorkloadSpec{{Kind: "pingpong"}},
	}
}

// Parse decodes a spec strictly: unknown fields and version mismatches
// are errors, and the result is validated.
func Parse(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %v: %w", err, errs.ErrBadConfig)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Marshal renders the scenario as indented JSON.
func (s *Scenario) Marshal() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Clone deep-copies the scenario through its JSON form.
func (s *Scenario) Clone() *Scenario {
	data, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("scenario: clone marshal: %v", err))
	}
	var out Scenario
	if err := json.Unmarshal(data, &out); err != nil {
		panic(fmt.Sprintf("scenario: clone unmarshal: %v", err))
	}
	return &out
}

// badf builds a validation failure wrapping ErrBadConfig; fail names
// the scenario it belongs to.
func badf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, errs.ErrBadConfig)...)
}

// fail names the scenario in a validation failure and makes sure it
// wraps ErrBadConfig. An owning layer's own sentinel (ErrUnroutable for
// a topology the northbridge cannot route) stays matchable too.
func (s *Scenario) fail(err error) error {
	if !errors.Is(err, errs.ErrBadConfig) {
		err = fmt.Errorf("%w: %w", err, errs.ErrBadConfig)
	}
	return fmt.Errorf("scenario %q: %w", s.Name, err)
}

// Validate checks the spec, and every cell of its sweep, without
// booting anything. It lowers each through the code Build uses and
// hands every lowered piece to the layer that owns its rules: topology
// constructors and core.Validate for the shape, routing and hardware
// limits, the fault campaign's Validate, serve.Config and the traffic
// patterns' range check. It does not mutate the scenario.
func (s *Scenario) Validate() error {
	_, err := s.Cells()
	return err
}

// check validates one scenario, sweep aside, and returns its lowered
// form.
func (s *Scenario) check() (*buildParams, error) {
	if s.Version != SpecVersion {
		return nil, badf("unsupported spec version %d (want %d)", s.Version, SpecVersion)
	}
	if s.Name == "" {
		return nil, badf("no name")
	}
	if len(s.Workloads) == 0 {
		return nil, badf("no workloads")
	}
	for i := range s.Workloads {
		w := &s.Workloads[i]
		def, ok := workloads[w.Kind]
		if !ok {
			return nil, badf("unknown workload kind %q", w.Kind)
		}
		if err := w.validateParams(); err != nil {
			return nil, err
		}
		if def.standalone && len(s.Workloads) > 1 {
			return nil, badf("standalone workload %q must be the only entry", w.Kind)
		}
	}
	if s.Trace != nil {
		switch s.Trace.Format {
		case "", "chrome", "csv":
		default:
			return nil, badf("unknown trace format %q", s.Trace.Format)
		}
	}
	p, err := s.lower()
	if err != nil {
		return nil, err
	}
	if _, err := core.Validate(p.Topo, p.Cfg); err != nil {
		return nil, err
	}
	if err := fault.NewCampaign(p.Faults...).Validate(p.Topo.N(), p.Topo.NumLinks()); err != nil {
		return nil, err
	}
	for i := range s.Workloads {
		w := &s.Workloads[i]
		if v := workloads[w.Kind].validate; v != nil {
			if err := v(s, p.Topo, w); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// validateParams rejects a parameter block that does not match Kind:
// a mismatched block is almost certainly a misspelled spec.
func (w *WorkloadSpec) validateParams() error {
	blocks := []struct {
		kind string
		set  bool
	}{
		{"pingpong", w.Pingpong != nil},
		{"ringshift", w.Ringshift != nil},
		{"allreduce", w.Allreduce != nil},
		{"cg", w.CG != nil},
		{"heat2d", w.Heat2D != nil},
		{"pgas", w.PGAS != nil},
		{"collectives", w.Collectives != nil},
		{"failure-tour", w.FailureTour != nil},
		{"fault-recovery", w.FaultRecovery != nil},
		{"serve", w.Serve != nil},
	}
	for _, b := range blocks {
		if b.set && b.kind != w.Kind {
			return badf("workload %q carries a %q parameter block", w.Kind, b.kind)
		}
	}
	return nil
}

// Cells expands the sweep grid into standalone scenarios: one per
// combination, named <name>-n<nodes>-p<parallel>-s<seed> for the swept
// axes, each validated. A scenario without a sweep expands to itself.
// A nodes axis must resize the topology (chain, ring and full take a
// node count; the other kinds are sized by their own fields).
func (s *Scenario) Cells() ([]*Scenario, error) {
	if _, err := s.check(); err != nil {
		return nil, s.fail(err)
	}
	if s.Sweep == nil {
		return []*Scenario{s.Clone()}, nil
	}
	nodes := s.Sweep.Nodes
	if len(nodes) == 0 {
		nodes = []int{0} // sentinel: keep the base topology
	}
	parallel := s.Sweep.Parallel
	hasPar := len(parallel) > 0
	if !hasPar {
		parallel = []int{s.Parallel}
	}
	seeds := s.Sweep.Seeds
	hasSeeds := len(seeds) > 0
	if !hasSeeds {
		seeds = []uint64{s.Seed}
	}
	var cells []*Scenario
	for _, n := range nodes {
		for _, p := range parallel {
			for _, seed := range seeds {
				cell := s.Clone()
				cell.Sweep = nil
				name := cell.Name
				if n > 0 {
					cell.Topology.Nodes = n
					name += fmt.Sprintf("-n%d", n)
				}
				cell.Parallel = p
				if hasPar {
					name += fmt.Sprintf("-p%d", p)
				}
				cell.Seed = seed
				if hasSeeds {
					name += fmt.Sprintf("-s%d", seed)
				}
				cell.Name = name
				lowered, err := cell.check()
				if err == nil && n > 0 && lowered.Topo.N() != n {
					err = badf("sweep over nodes %d does not resize topology %q (%d nodes)",
						n, s.Topology.Kind, lowered.Topo.N())
				}
				if err != nil {
					return nil, cell.fail(err)
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}
