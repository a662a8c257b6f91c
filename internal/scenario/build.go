package scenario

import (
	"fmt"
	"io"

	tccluster "repro"
)

// nsToTime converts a spec's nanosecond field to virtual time.
func nsToTime(ns int64) tccluster.Time { return tccluster.Time(ns) * tccluster.Nanosecond }

// BuildTopology constructs the topology the spec names.
func (t TopologySpec) BuildTopology() (*tccluster.Topology, error) {
	switch t.Kind {
	case "chain":
		return tccluster.Chain(t.Nodes)
	case "ring":
		return tccluster.Ring(t.Nodes)
	case "mesh":
		return tccluster.Mesh(t.Width, t.Height)
	case "torus":
		return tccluster.Torus(t.Width, t.Height)
	case "full":
		return tccluster.FullyConnected(t.Nodes)
	case "hypercube":
		return tccluster.Hypercube(t.Dim)
	default:
		return nil, badf("unknown topology kind %q", t.Kind)
	}
}

// apply overlays the non-zero overrides on a hardware config.
func (c *ConfigSpec) apply(cfg *tccluster.Config) {
	if c == nil {
		return
	}
	if c.SocketsPerNode > 0 {
		cfg.SocketsPerNode = c.SocketsPerNode
	}
	if c.CoresPerSocket > 0 {
		cfg.CoresPerSocket = c.CoresPerSocket
	}
	if c.LinkSpeedMHz > 0 {
		cfg.LinkSpeed = tccluster.LinkSpeed(c.LinkSpeedMHz)
	}
	if c.LinkWidth > 0 {
		cfg.LinkWidth = c.LinkWidth
	}
	if c.CableErrorRate > 0 {
		cfg.CableErrorRate = c.CableErrorRate
	}
	if c.CableFlightNS > 0 {
		cfg.CableFlight = nsToTime(c.CableFlightNS)
	}
	if c.MemPerNodeMB > 0 {
		cfg.MemPerNode = uint64(c.MemPerNodeMB) << 20
	}
}

// kernelOptions returns the kernel selection the spec asks for.
func (c *ConfigSpec) kernelOptions() tccluster.KernelOptions {
	kopt := tccluster.KernelOptions{SMCDisabled: true}
	if c != nil && c.SMCDisabled != nil {
		kopt.SMCDisabled = *c.SMCDisabled
	}
	return kopt
}

// action lowers one fault spec to the WithFaults vocabulary, value for
// value: zero keeps the fault default (permanent, link penalty), and
// the campaign's Validate rejects what cannot run.
func (f FaultSpec) action() (tccluster.FaultAction, error) {
	at, dur := nsToTime(f.AtNS), nsToTime(f.ForNS)
	switch f.Kind {
	case "link-degrade":
		return tccluster.LinkDegradeWithPenalty(f.Link, at, dur, f.Rate, nsToTime(f.PenaltyNS)), nil
	case "link-down":
		return tccluster.LinkDownFor(f.Link, at, dur), nil
	case "link-flap":
		return tccluster.LinkFlap(f.Link, at, f.Count, nsToTime(f.PeriodNS)), nil
	case "retrain-storm":
		return tccluster.RetrainStorm(f.Link, at, f.Count, nsToTime(f.PeriodNS)), nil
	case "node-crash":
		return tccluster.NodeCrashFor(f.Node, at, dur), nil
	default:
		return tccluster.FaultAction{}, badf("unknown fault kind %q", f.Kind)
	}
}

// buildParams is the lowered form of a scenario, open for per-phase
// modification before the cluster is constructed (the failure tour
// swaps kernels and error rates between its scenes).
type buildParams struct {
	Topo   *tccluster.Topology
	Cfg    tccluster.Config
	Kopt   tccluster.KernelOptions
	Faults []tccluster.FaultAction
	Opts   []tccluster.Option
}

// lower translates the spec into buildParams without booting anything.
func (s *Scenario) lower() (*buildParams, error) {
	topo, err := s.Topology.BuildTopology()
	if err != nil {
		return nil, err
	}
	cfg := tccluster.DefaultConfig()
	s.Config.apply(&cfg)
	cfg.Parallel = s.Parallel
	p := &buildParams{Topo: topo, Cfg: cfg, Kopt: s.Config.kernelOptions()}
	for _, f := range s.Faults {
		a, err := f.action()
		if err != nil {
			return nil, err
		}
		p.Faults = append(p.Faults, a)
	}
	if s.Monitor != nil {
		var mopts []tccluster.MonitorOption
		if s.Monitor.SampleEveryNS > 0 {
			mopts = append(mopts, tccluster.MonitorSampleEvery(nsToTime(s.Monitor.SampleEveryNS)))
		}
		if s.Monitor.Windows > 0 {
			mopts = append(mopts, tccluster.MonitorWindows(s.Monitor.Windows))
		}
		if s.Monitor.AutoDump != "" {
			mopts = append(mopts, tccluster.MonitorAutoDump(s.Monitor.AutoDump))
		}
		p.Opts = append(p.Opts, tccluster.WithMonitor(s.Monitor.Addr, mopts...))
	}
	if s.Profile != nil {
		var popts []tccluster.ProfileOption
		if s.Profile.Spans {
			popts = append(popts, tccluster.ProfileSpans())
		}
		p.Opts = append(p.Opts, tccluster.WithProfile(popts...))
	}
	return p, nil
}

// build boots a cluster from lowered parameters, applying the
// scenario-wide seed and tracer knobs.
func (s *Scenario) build(p *buildParams, tracer tccluster.Tracer) (*tccluster.Cluster, error) {
	opts := []tccluster.Option{
		tccluster.WithKernelOptions(p.Kopt),
		tccluster.WithSeed(s.Seed),
	}
	if tracer != nil {
		opts = append(opts, tccluster.WithTracer(tracer))
	}
	if len(p.Faults) > 0 {
		opts = append(opts, tccluster.WithFaults(p.Faults...))
	}
	opts = append(opts, p.Opts...)
	return tccluster.New(p.Topo, p.Cfg, opts...)
}

// Build lowers the scenario into a booted cluster plus a runnable
// workload closure: the programmatic form of Run for callers that want
// the cluster handle (to attach extra channels, inspect the monitor,
// ...) before driving the workloads. Standalone workloads (the failure
// tour) manage their own clusters and cannot be pre-built this way —
// use Run.
func (s *Scenario) Build() (*tccluster.Cluster, func(io.Writer) error, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	for _, w := range s.Workloads {
		if workloads[w.Kind].standalone {
			return nil, nil, s.fail(badf("standalone workload %q builds its own clusters; use Run", w.Kind))
		}
	}
	rc, err := newRunCtx(s)
	if err != nil {
		return nil, nil, err
	}
	c, err := rc.cluster()
	if err != nil {
		return nil, nil, err
	}
	run := func(w io.Writer) error {
		rc.out = w
		defer rc.closeAll()
		if err := rc.runWorkloads(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		return rc.exportTrace()
	}
	return c, run, nil
}
