package scenario

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync"

	tccluster "repro"
)

// Result summarizes one scenario run with the quantities the
// determinism gates compare: total events fired and the final virtual
// time across every cluster the scenario built.
type Result struct {
	// EventsFired sums the event counts of all clusters.
	EventsFired uint64 `json:"events_fired"`
	// FinalVirtualPS is the primary cluster's final virtual time (the
	// maximum across clusters for standalone workloads).
	FinalVirtualPS int64 `json:"final_virtual_ps"`
	// Clusters is how many clusters the run booted.
	Clusters int `json:"clusters"`
	// Profile is the primary cluster's profiling summary, present only
	// when the spec carried a profile block. The budget and critical-
	// path sections are deterministic in virtual time; the PDES section
	// carries wall-clock numbers and is excluded from determinism
	// comparisons.
	Profile *tccluster.ProfileSummary `json:"profile,omitempty"`
}

// Fingerprint compares the deterministic portion of two results: event
// counts, final virtual time and cluster count, ignoring the profile
// (whose PDES section is wall-clock). The tccrun -check twin comparison
// and the determinism gates use it.
func (r *Result) Fingerprint(other *Result) bool {
	return r.EventsFired == other.EventsFired &&
		r.FinalVirtualPS == other.FinalVirtualPS &&
		r.Clusters == other.Clusters
}

// workloadDef describes one registered workload kind.
type workloadDef struct {
	// standalone workloads build their own clusters (scene by scene)
	// instead of sharing the scenario's primary cluster.
	standalone bool
	// validate rejects a workload block that cannot run on the lowered
	// topology, through the check of the layer that runs it.
	validate func(*Scenario, *tccluster.Topology, *WorkloadSpec) error
	// run drives the workload; callbacks report failures through
	// runCtx.saveErr, checked after every drain.
	run func(*runCtx, *WorkloadSpec) error
}

// workloads is the kind registry. Validate consults it, so adding an
// entry here is all a new workload needs.
var workloads = map[string]workloadDef{
	"pingpong":       {run: runPingpong},
	"ringshift":      {run: runRingshift},
	"allreduce":      {run: runAllreduce},
	"cg":             {run: runCG},
	"heat2d":         {run: runHeat2D},
	"pgas":           {run: runPGAS},
	"collectives":    {validate: validateCollectives, run: runCollectives},
	"failure-tour":   {standalone: true, run: runFailureTour},
	"fault-recovery": {validate: validateFaultRecovery, run: runFaultRecovery},
	"serve":          {validate: checkServe, run: runServe},
}

// runCtx carries one scenario execution: the lazily built primary
// cluster, every cluster a standalone workload created, the trace
// collector, and the first error any completion callback reported.
type runCtx struct {
	s         *Scenario
	out       io.Writer
	topo      *tccluster.Topology
	primary   *tccluster.Cluster
	clusters  []*tccluster.Cluster
	collector *tccluster.Collector

	mu  sync.Mutex
	err error
}

func newRunCtx(s *Scenario) (*runCtx, error) {
	rc := &runCtx{s: s, out: os.Stdout}
	if s.Trace != nil {
		buf := s.Trace.Buffer
		if buf <= 0 {
			buf = 1 << 16
		}
		rc.collector = tccluster.NewCollector(buf)
	}
	return rc, nil
}

func (rc *runCtx) tracer() tccluster.Tracer {
	if rc.collector == nil {
		return nil
	}
	return rc.collector
}

// cluster returns the scenario's shared cluster, booting it on first
// use.
func (rc *runCtx) cluster() (*tccluster.Cluster, error) {
	if rc.primary != nil {
		return rc.primary, nil
	}
	p, err := rc.s.lower()
	if err != nil {
		return nil, err
	}
	rc.topo = p.Topo
	c, err := rc.s.build(p, rc.tracer())
	if err != nil {
		return nil, err
	}
	rc.primary = c
	rc.clusters = append(rc.clusters, c)
	return c, nil
}

// newCluster boots an additional cluster from the scenario's lowered
// base, letting mod adjust kernel, config and faults first — the
// failure tour's scene-by-scene rebuild.
func (rc *runCtx) newCluster(mod func(*buildParams)) (*tccluster.Cluster, error) {
	p, err := rc.s.lower()
	if err != nil {
		return nil, err
	}
	if mod != nil {
		mod(p)
	}
	c, err := rc.s.build(p, rc.tracer())
	if err != nil {
		return nil, err
	}
	rc.clusters = append(rc.clusters, c)
	return c, nil
}

// saveErr records the first failure a completion callback reports.
// Callbacks may run on partition worker goroutines, so this is the
// only error path safe in parallel runs; the driver re-checks with
// failed() after every drain.
func (rc *runCtx) saveErr(err error) bool {
	if err == nil {
		return false
	}
	rc.mu.Lock()
	if rc.err == nil {
		rc.err = err
	}
	rc.mu.Unlock()
	return true
}

// failed returns the first callback-reported error, if any.
func (rc *runCtx) failed() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.err
}

func (rc *runCtx) runWorkloads() error {
	for i := range rc.s.Workloads {
		w := &rc.s.Workloads[i]
		if err := workloads[w.Kind].run(rc, w); err != nil {
			return err
		}
		if err := rc.failed(); err != nil {
			return err
		}
	}
	return nil
}

// exportTrace writes the collected events if the spec asked for a file.
func (rc *runCtx) exportTrace() error {
	t := rc.s.Trace
	if t == nil || t.Output == "" || rc.collector == nil {
		return nil
	}
	f, err := os.Create(t.Output)
	if err != nil {
		return err
	}
	defer f.Close()
	if t.Format == "csv" {
		return tccluster.WriteCSVTrace(f, rc.collector.Events())
	}
	return tccluster.WriteChromeTrace(f, rc.collector.Events())
}

func (rc *runCtx) closeAll() {
	for _, c := range rc.clusters {
		c.Close()
	}
}

func (rc *runCtx) result() *Result {
	r := &Result{Clusters: len(rc.clusters)}
	for _, c := range rc.clusters {
		r.EventsFired += c.EventsFired()
		if ps := int64(c.Now()); ps > r.FinalVirtualPS {
			r.FinalVirtualPS = ps
		}
	}
	if rc.primary != nil {
		r.FinalVirtualPS = int64(rc.primary.Now())
		r.Profile = rc.primary.Profile()
	}
	return r
}

// Run validates the scenario, boots what it describes, drives every
// workload in order, exports the trace if one was requested, and
// returns the run's fingerprint.
func (s *Scenario) Run(w io.Writer) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rc, err := newRunCtx(s)
	if err != nil {
		return nil, err
	}
	rc.out = w
	defer rc.closeAll()
	if err := rc.runWorkloads(); err != nil {
		return nil, err
	}
	if err := rc.exportTrace(); err != nil {
		return nil, err
	}
	return rc.result(), nil
}

// Main is the shared entry point of the example wrappers: parse the
// embedded spec, apply the common command-line overrides, run to
// stdout. On failure it prints "<name>: <err>" and exits 1, exactly as
// the hand-coded mains did.
func Main(spec []byte) {
	s, err := Parse(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenario:", err)
		os.Exit(1)
	}
	cf := RegisterCommonFlags(flag.CommandLine)
	flag.Parse()
	cf.Apply(s)
	if _, err := s.Run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", s.Name, err)
		os.Exit(1)
	}
}
