// Package tccluster is a full-system reproduction of
//
//	H. Litz, M. Thuermer, U. Bruening: "TCCluster: A Cluster
//	Architecture Utilizing the Processor Host Interface as a Network
//	Interconnect", IEEE CLUSTER 2010.
//
// TCCluster turns the AMD Opteron's HyperTransport processor interface
// into the cluster interconnect itself: no NICs, no switches — a debug
// register forces processor-to-processor links into non-coherent mode at
// a warm reset, every node claims NodeID 0 so the northbridge's MMIO
// base/limit registers route remote addresses straight out a link, and
// all communication is remote posted stores into uncachable ring
// buffers.
//
// Because the original artifact is BIOS firmware and a kernel driver for
// 2010-era hardware, this library re-creates the entire stack as a
// deterministic discrete-event simulation — HT links with credit flow
// control and training, the register-accurate northbridge address maps,
// write-combining CPU store paths, the coreboot-style boot sequence, the
// custom-kernel driver model, and the polling message library — plus the
// MPI and PGAS middleware the paper names as next steps.
//
// Quick start:
//
//	topo, _ := tccluster.Chain(2)
//	c, err := tccluster.New(topo, tccluster.DefaultConfig())
//	if err != nil { ... }
//	s, r, _ := c.OpenChannel(0, 1, tccluster.DefaultMsgParams())
//	r.Recv(func(data []byte, err error) { fmt.Printf("%s\n", data) })
//	s.Send([]byte("hello over the host interface"), func(error) {})
//	c.Run()
//
// The cluster runs in virtual time: Run drains all pending events,
// RunFor advances the clock by a bounded amount (use it when pollers may
// spin forever, e.g. a barrier some node never enters).
package tccluster

import (
	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/fault"
	"repro/internal/ht"
	"repro/internal/kernel"
	"repro/internal/monitor"
	"repro/internal/mpi"
	"repro/internal/msg"
	"repro/internal/pgas"
	"repro/internal/prof"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Re-exported core types. Aliases keep the full method sets usable by
// importers of this package.
type (
	// Topology is an interconnect graph with routing (see Chain, Mesh,
	// Ring, FullyConnected, Hypercube).
	Topology = topology.Topology
	// Config selects memory size, sockets per node, link speed/width and
	// the hardware model parameters.
	Config = core.Config
	// Node is one booted supernode.
	Node = core.Node
	// Time is virtual time in picoseconds.
	Time = sim.Time
	// LinkSpeed is an HT link clock (HT200..HT2600).
	LinkSpeed = ht.Speed

	// KernelOptions configure the per-node OS (SMC suppression, driver
	// export window).
	KernelOptions = kernel.Options
	// Window is a driver mapping of local or remote memory.
	Window = kernel.Window

	// MsgParams configure a message channel (ring size, flow control,
	// rendezvous region).
	MsgParams = msg.Params
	// Sender is the producing end of a message channel.
	Sender = msg.Sender
	// Receiver is the polling end of a message channel.
	Receiver = msg.Receiver

	// MPIConfig configures an MPI world.
	MPIConfig = mpi.Config
	// World is an MPI world over the cluster.
	World = mpi.World
	// Comm is one MPI rank's communicator.
	Comm = mpi.Comm

	// PGASConfig configures a global address space.
	PGASConfig = pgas.Config
	// Space is a partitioned global address space.
	Space = pgas.Space

	// ServeConfig shapes a replicated KV/query serving deployment
	// (shards, replicas, arrival process, admission, routing policy,
	// SLO).
	ServeConfig = serve.Config
	// Service is a sharded, replicated serving deployment over the
	// cluster's message fabric; build one with NewService.
	Service = serve.Service
	// ServePolicy selects how serve clients spread reads over replicas.
	ServePolicy = serve.Policy
	// ServeReport is a completed serving run's merged outcome: latency
	// quantiles, goodput, shed/timeout counters, the failover story.
	ServeReport = serve.Report
	// ServeWindow is one goodput accounting window of a ServeReport.
	ServeWindow = serve.Window

	// Tracer consumes observability events from every layer of the
	// cluster. Install one with WithTracer; nil (the default) disables
	// tracing at the cost of one branch per potential emission.
	Tracer = trace.Tracer
	// Collector is the standard Tracer: a bounded ring buffer with
	// derived metrics and Chrome-trace/CSV export.
	Collector = trace.Collector
	// TraceEvent is one typed observation (packet sent, credit stall,
	// barrier enter, boot phase ...).
	TraceEvent = trace.Event
	// TraceKind tags a TraceEvent.
	TraceKind = trace.Kind
	// MetricKey identifies one metric (name plus node/link/channel).
	MetricKey = trace.Key
	// MetricsSnapshot is a point-in-time copy of every counter, gauge
	// and histogram — what Cluster.Metrics returns.
	MetricsSnapshot = trace.Snapshot

	// Profiler attributes packet lifecycle time to pipeline phases and
	// accounts PDES runtime. Install one with WithProfile; read it back
	// with Cluster.Profile.
	Profiler = prof.Profiler
	// ProfileOption customizes WithProfile (currently ProfileSpans).
	ProfileOption = prof.Option
	// ProfileSummary is the renderable latency budget a profiled run
	// produces: per-phase histograms, per-link/per-node breakdowns, the
	// critical-path ranking and (parallel runs) PDES accounting. It
	// marshals to JSON and renders with WriteText; with WithMonitor its
	// series are also on /metrics.
	ProfileSummary = prof.Summary
	// ProfilePhaseStats is one phase's aggregate inside a
	// ProfileSummary.
	ProfilePhaseStats = prof.PhaseStats

	// Monitor is the live-monitoring subsystem: /metrics HTTP endpoint,
	// flight recorder, alert watchdog. Install one with WithMonitor.
	Monitor = monitor.Monitor
	// MonitorOption customizes WithMonitor (sampling window, recorder
	// depth, watchdog rules, alert callbacks, auto-dump path).
	MonitorOption = monitor.Option
	// Alert is one raised watchdog incident.
	Alert = monitor.Alert
	// WatchdogRule is a pluggable health rule evaluated against each
	// sampling window.
	WatchdogRule = monitor.Rule
	// RecorderWindow is one closed flight-recorder sampling window.
	RecorderWindow = monitor.Window

	// FaultAction is one scripted fault (see LinkDegrade, LinkDown,
	// LinkFlap, RetrainStorm, NodeCrash and friends). Pass them to
	// WithFaults.
	FaultAction = fault.Action
	// FaultCampaign is an immutable script of fault actions.
	FaultCampaign = fault.Campaign
	// FaultInjector replays a campaign against the booted cluster;
	// Cluster.Faults returns it for stats inspection.
	FaultInjector = fault.Injector
	// FaultStats counts what the injector has applied so far.
	FaultStats = fault.Stats
)

// Typed sentinel errors. Constructors and channel operations wrap these
// with %w, so callers classify failures with errors.Is instead of
// matching message strings.
var (
	// ErrUnroutable: the topology's routing cannot reach every node, or
	// needs more address intervals than the northbridge provides.
	ErrUnroutable = errs.ErrUnroutable
	// ErrRingFull: the uncachable receive window cannot host another
	// ring or flow-control slot (endpoint scalability, paper §IV.A).
	ErrRingFull = errs.ErrRingFull
	// ErrDeadlockTopology: single-VC posted traffic over this routing
	// could deadlock (cyclic channel-dependency graph).
	ErrDeadlockTopology = errs.ErrDeadlockTopology
	// ErrBadConfig: an out-of-range size, socket count, ring parameter
	// or malformed topology-constructor argument.
	ErrBadConfig = errs.ErrBadConfig
	// ErrPeerDead: a reliable channel exhausted its retransmit budget
	// without an acknowledgment — every path to the peer is presumed
	// gone. MPI surfaces it as the process-failure signal.
	ErrPeerDead = errs.ErrPeerDead
)

// Fault-action constructors, re-exported for WithFaults. Times are
// absolute virtual times; actions landing before boot finishes are
// deferred to the first instant after it.
var (
	// LinkDegrade raises an external link's runtime CRC error rate for a
	// duration (0 = forever) — the marginal-cable model.
	LinkDegrade = fault.LinkDegrade
	// LinkDegradeWithPenalty is LinkDegrade with an explicit
	// resync-and-replay penalty per corrupted packet.
	LinkDegradeWithPenalty = fault.LinkDegradeWithPenalty
	// LinkDown pulls an external link's cable, permanently.
	LinkDown = fault.LinkDown
	// LinkDownFor pulls the cable and re-seats it after a duration (the
	// link retrains and carries traffic again one TrainTime later).
	LinkDownFor = fault.LinkDownFor
	// LinkFlap oscillates a link between dead and retraining — the
	// half-seated connector.
	LinkFlap = fault.LinkFlap
	// RetrainStorm repeatedly asserts warm reset on a link.
	RetrainStorm = fault.RetrainStorm
	// NodeCrash fail-stops a node: every external cable drops at once.
	NodeCrash = fault.NodeCrash
	// NodeCrashFor fail-stops a node and warm-resets it back in after a
	// duration.
	NodeCrashFor = fault.NodeCrashFor
)

// NewCollector returns a Collector keeping the most recent capacity
// events (minimum 16).
func NewCollector(capacity int) *Collector { return trace.NewCollector(capacity) }

// WriteChromeTrace renders events as Chrome trace_event JSON, viewable
// in Perfetto (ui.perfetto.dev) or chrome://tracing.
var WriteChromeTrace = trace.WriteChrome

// WriteCSVTrace renders events as CSV, one event per row.
var WriteCSVTrace = trace.WriteCSV

// Link clocks, re-exported. HT800 (1.6 Gbit/s/lane) is the prototype's
// cable-limited rate; HT2600 is the Shanghai ceiling.
const (
	HT200  = ht.HT200
	HT400  = ht.HT400
	HT800  = ht.HT800
	HT1000 = ht.HT1000
	HT2400 = ht.HT2400
	HT2600 = ht.HT2600
)

// Nanosecond and friends let callers express virtual durations.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// Topology constructors.
var (
	// Chain builds a 1-D chain (the prototype shape).
	Chain = topology.Chain
	// Ring builds a 1-D ring (a deliberate deadlock-checker example).
	Ring = topology.Ring
	// Mesh builds a w x h mesh with Y-first interval routing.
	Mesh = topology.Mesh
	// Torus builds a w x h torus (more intervals, deadlock-flagged).
	Torus = topology.Torus
	// FullyConnected builds an all-to-all graph (max 5 nodes).
	FullyConnected = topology.FullyConnected
	// Hypercube builds a d-dimensional hypercube (d <= 4).
	Hypercube = topology.Hypercube
)

// DefaultConfig returns the prototype-faithful hardware configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultMsgParams returns the paper's message-library configuration
// (4 KB rings).
func DefaultMsgParams() MsgParams { return msg.DefaultParams() }

// DefaultMPIConfig returns eager/rendezvous MPI defaults.
func DefaultMPIConfig() MPIConfig { return mpi.DefaultConfig() }

// DefaultPGASConfig returns a small symmetric global space.
func DefaultPGASConfig() PGASConfig { return pgas.DefaultConfig() }

// DefaultServeConfig returns the serving defaults (64 shards, 2
// replicas, 90% reads, 1M keys, round-robin routing, 25 us SLO).
func DefaultServeConfig() ServeConfig { return serve.DefaultConfig() }

// Serve routing policies.
const (
	ServeRoundRobin  = serve.PolicyRoundRobin
	ServeLeastLoaded = serve.PolicyLeastLoaded
	ServeAffinity    = serve.PolicyAffinity
)

// ValidateServeConfig checks cfg against an n-node deployment without
// booting anything, returning the config with defaults filled in. The
// scenario layer uses it to reject bad specs before cluster boot.
func ValidateServeConfig(cfg ServeConfig, nodes int) (ServeConfig, error) {
	err := cfg.Validate(nodes)
	return cfg, err
}

// Reduction operators for MPI collectives.
var (
	Sum = mpi.Sum
	Max = mpi.Max
	Min = mpi.Min
)

// Float64s and ToFloat64s convert float vectors to and from message
// payloads.
var (
	Float64s   = mpi.Float64s
	ToFloat64s = mpi.ToFloat64s
)

// AnyTag matches any tag in Comm.Recv.
const AnyTag = mpi.AnyTag

// Cluster is a booted TCCluster with kernels installed on every node:
// the top-level handle of this library.
type Cluster struct {
	*core.Cluster
	os  *kernel.OS
	mon *monitor.Monitor
	inj *fault.Injector
}

// Option customizes New beyond the hardware Config: kernel selection,
// observability, seeding. Options apply in order, so a later option
// overrides an earlier one.
type Option func(*buildOptions)

type buildOptions struct {
	cfg         Config
	kopt        KernelOptions
	monitorOn   bool
	monitorAddr string
	monitorOpts []MonitorOption
	faults      []FaultAction
	profileOn   bool
	profileOpts []ProfileOption
}

// WithKernelOptions selects the per-node OS configuration. The default
// is the paper's custom kernel (SMCDisabled=true); a stock kernel
// (SMCDisabled=false) reproduces the interrupt-leak failure mode the
// custom kernel exists to prevent.
func WithKernelOptions(kopt KernelOptions) Option {
	return func(b *buildOptions) { b.kopt = kopt }
}

// WithTracer installs an observability tracer — typically a Collector —
// receiving typed events from every layer: link serializations, credit
// stalls, routing faults, ring-full stalls, MPI barriers/rendezvous and
// firmware boot phases. See Cluster.Metrics for the aggregate view.
func WithTracer(t Tracer) Option {
	return func(b *buildOptions) { b.cfg.Tracer = t }
}

// WithSeed perturbs the cluster's stochastic models (cable fault
// streams). Identical topology+Config+Seed produce byte-identical
// event streams. Seed zero is the default streams.
func WithSeed(seed uint64) Option {
	return func(b *buildOptions) { b.cfg.Seed = seed }
}

// WithLegacyEventQueue runs the simulation on the original
// container/heap event queue instead of the allocation-free ladder
// queue. Both queues order events identically — (time, seq) — so
// results match to the picosecond; this option exists only as the
// determinism oracle (TestLadderMatchesLegacyOnAllExampleTopologies).
func WithLegacyEventQueue() Option {
	return func(b *buildOptions) { b.cfg.LegacyEventQueue = true }
}

// WithParallel runs the simulation on up to n worker goroutines: a
// greedy graph-cut over the external-link graph groups supernodes into
// partitions, each advancing its own event queue, synchronized by a
// conservative time-windowed barrier whose lookahead is the minimum
// cross-partition link latency (serialization plus cable flight —
// nothing crosses a partition cut faster). Parallel runs are bit-exact
// with serial runs. n <= 1 keeps the reference serial engine.
// Incompatible with WithLegacyEventQueue.
func WithParallel(n int) Option {
	return func(b *buildOptions) { b.cfg.Parallel = n }
}

// WithMonitor starts the live-monitoring subsystem on the cluster: an
// HTTP server on addr exposing /metrics (Prometheus text), /metrics.json
// (the document cmd/tcctop polls), /health, /alerts and /dump; a flight
// recorder sampling snapshot deltas into a bounded ring; and an alert
// watchdog evaluating health rules (dead link, credit-stall storm,
// ring-full burst, master-abort storm) against every sampling window.
// An empty addr enables sampling, recording and watchdogs without
// listening anywhere. Call Cluster.Close when done to stop the server:
//
//	c, err := tccluster.New(topo, cfg,
//		tccluster.WithTracer(tccluster.NewCollector(1<<16)),
//		tccluster.WithMonitor("127.0.0.1:9120",
//			tccluster.MonitorSampleEvery(50*tccluster.Microsecond),
//			tccluster.MonitorAutoDump("incident.json")))
func WithMonitor(addr string, opts ...MonitorOption) Option {
	return func(b *buildOptions) {
		b.monitorOn = true
		b.monitorAddr = addr
		b.monitorOpts = opts
	}
}

// WithProfile enables the simulation profiler: every instrumented
// layer attributes packet lifecycle time to its phase (tx-queue wait,
// link serialization, retry stalls, northbridge crossbar/hop, IO
// bridge, memory-controller service, CPU store issue, write-combining
// flush, receiver poll-to-delivery) into lock-free histograms, and
// parallel runs additionally account PDES runtime per partition
// (busy/barrier wall time, events, window occupancy, the cross-
// partition mailbox matrix). Profiling is observe-only: it never
// schedules events, so a profiled run is event-for-event identical to
// an unprofiled one. The profiler attaches after firmware boot, so the
// budget covers workload traffic.
//
// Read results with Cluster.Profile; combined with WithMonitor the
// summary is also served as JSON at /profile, and every phase
// histogram and PDES series joins /metrics and /metrics.json.
// ProfileSpans() additionally emits per-packet phase spans into the
// tracer for Chrome-trace rendering (requires WithTracer):
//
//	c, err := tccluster.New(topo, cfg, tccluster.WithProfile())
//	...run a workload...
//	c.Profile().WriteText(os.Stdout)
func WithProfile(opts ...ProfileOption) Option {
	return func(b *buildOptions) {
		b.profileOn = true
		b.profileOpts = opts
	}
}

// ProfileSpans makes a WithProfile cluster emit one trace span per
// packet per phase (KindPhaseSpan), rendered as complete slices by
// WriteChromeTrace. Spans ride the tracer, so WithTracer must be set
// for them to land anywhere.
var ProfileSpans = prof.WithSpans

// WithFaults schedules a fault campaign against the cluster: each
// action (LinkDegrade, LinkDown, LinkFlap, RetrainStorm, NodeCrash,
// ...) applies at its absolute virtual time during Run/RunFor. Actions
// are not ordinary events — the executor cuts the timeline exactly at
// each action's timestamp (all events before it executed, none at or
// after it) and applies the mutation with the simulation parked, so a
// campaign produces bit-identical results on the serial and WithParallel
// engines. Actions timed before boot completes are deferred to the
// first instant after it:
//
//	c, err := tccluster.New(topo, cfg,
//		tccluster.WithFaults(
//			tccluster.LinkDownFor(1, 200*tccluster.Microsecond, 80*tccluster.Microsecond),
//			tccluster.NodeCrash(3, 500*tccluster.Microsecond)))
func WithFaults(actions ...FaultAction) Option {
	return func(b *buildOptions) { b.faults = append(b.faults, actions...) }
}

// Monitor sub-options, re-exported so callers configure WithMonitor
// without importing internal packages.
var (
	// MonitorSampleEvery sets the virtual-time width of one sampling
	// window (default 100 us).
	MonitorSampleEvery = monitor.WithSampleEvery
	// MonitorWindows bounds the flight recorder's retained windows.
	MonitorWindows = monitor.WithRecorderWindows
	// MonitorRules replaces the default watchdog rule set.
	MonitorRules = monitor.WithRules
	// MonitorOnAlert registers an alert raise/resolve callback. It runs
	// on the simulation goroutine; keep it short.
	MonitorOnAlert = monitor.WithAlertCallback
	// MonitorAutoDump dumps the flight recorder to a file whenever an
	// alert is raised.
	MonitorAutoDump = monitor.WithAutoDump
)

// Watchdog rule constructors, re-exported for MonitorRules.
var (
	DeadLinkRule    = monitor.DeadLinkRule
	CreditStallRule = monitor.CreditStallRule
	RingFullRule    = monitor.RingFullRule
	MasterAbortRule = monitor.MasterAbortRule
)

// New builds, boots and installs kernels on a cluster over the given
// topology. With no options it boots the paper's custom kernel (SMC
// disabled) with tracing off:
//
//	c, err := tccluster.New(topo, cfg)
//
// Options select the kernel, tracing and seeding:
//
//	col := tccluster.NewCollector(1 << 16)
//	c, err := tccluster.New(topo, cfg,
//		tccluster.WithTracer(col),
//		tccluster.WithSeed(42))
func New(topo *Topology, cfg Config, opts ...Option) (*Cluster, error) {
	b := buildOptions{cfg: cfg, kopt: KernelOptions{SMCDisabled: true}}
	for _, opt := range opts {
		opt(&b)
	}
	if b.profileOn {
		// Constructed here, not in the Option closure, so one Option
		// value reused across New calls gives every cluster its own
		// profiler (workloads that build serial/parallel twins depend on
		// their budgets staying separate).
		b.cfg.Profiler = prof.New(b.profileOpts...)
	}
	c, err := core.New(topo, b.cfg)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{Cluster: c, os: kernel.Install(c, b.kopt)}
	if len(b.faults) > 0 {
		inj, err := fault.NewInjector(c, fault.NewCampaign(b.faults...))
		if err != nil {
			return nil, err
		}
		cl.inj = inj
		c.SetActionSource(inj)
	}
	if b.monitorOn {
		mopts := append([]MonitorOption{
			monitor.WithLinkStatus(c.LinkStatuses),
			monitor.WithTracer(b.cfg.Tracer),
			monitor.WithProfiler(b.cfg.Profiler),
		}, b.monitorOpts...)
		cl.mon = monitor.New(c, mopts...)
		c.SetSampleHook(cl.mon.Interval(), cl.mon.OnSample)
		if b.monitorAddr != "" {
			if err := cl.mon.Serve(b.monitorAddr); err != nil {
				return nil, err
			}
		}
	}
	return cl, nil
}

// Monitor returns the live-monitoring subsystem, nil unless the cluster
// was built WithMonitor.
func (c *Cluster) Monitor() *Monitor { return c.mon }

// Profile assembles the current profiling summary — the per-phase
// latency budget, per-link/per-node breakdowns, critical-path ranking
// and (parallel runs) PDES accounting. Nil unless the cluster was
// built WithProfile. Safe to call mid-run: histograms are atomics.
func (c *Cluster) Profile() *ProfileSummary {
	pr := c.Cluster.Profiler()
	if pr == nil {
		return nil
	}
	s := pr.Summary()
	return &s
}

// Faults returns the campaign injector, nil unless the cluster was
// built WithFaults.
func (c *Cluster) Faults() *FaultInjector { return c.inj }

// Close releases live resources (the monitor's HTTP listener). It is
// safe on clusters built without a monitor, and safe to call more than
// once.
func (c *Cluster) Close() error {
	if c.mon == nil {
		return nil
	}
	return c.mon.Close()
}

// OS exposes the kernel layer (drivers, mappings, SMC counters).
func (c *Cluster) OS() *kernel.OS { return c.os }

// Kernel returns node i's kernel.
func (c *Cluster) Kernel(i int) *kernel.Kernel { return c.os.Kernel(i) }

// OpenChannel opens a unidirectional message channel from node src to
// node dst.
func (c *Cluster) OpenChannel(src, dst int, par MsgParams) (*Sender, *Receiver, error) {
	return msg.Open(c.os, src, dst, par)
}

// NewWorld opens an MPI world spanning all nodes.
func (c *Cluster) NewWorld(cfg MPIConfig) (*World, error) {
	return mpi.NewWorld(c.os, cfg)
}

// NewSpace creates a partitioned global address space spanning all
// nodes.
func (c *Cluster) NewSpace(cfg PGASConfig) (*Space, error) {
	return pgas.New(c.os, cfg)
}

// NewService deploys a sharded, replicated KV/query service over every
// node: consistent-hash placement, a full channel mesh, per-node
// open-loop clients with token-bucket admission. Call Service.Start,
// drive the cluster, then read Service.Report. On a cluster built
// WithMonitor the service's serve.* counters and serve.latency_ps
// histogram join /metrics and /metrics.json (and so the tcctop SERVE
// panel) automatically.
func (c *Cluster) NewService(cfg ServeConfig) (*Service, error) {
	s, err := serve.New(c.os, cfg)
	if err != nil {
		return nil, err
	}
	if c.mon != nil {
		c.mon.AddSource(s)
	}
	return s, nil
}

// Now returns the cluster's virtual time. On parallel clusters this is
// the global clock — the aligned partition clocks between runs.
func (c *Cluster) Now() Time { return c.Cluster.Now() }
