// Package monitor is the live half of the cluster's observability
// story. Where internal/trace collects events for post-mortem export,
// monitor introspects a *running* cluster the way APEnet+ exposes
// per-link status registers to its host: an HTTP endpoint serves
// Prometheus-format metrics scraped mid-run, a flight recorder keeps a
// bounded ring of recent snapshot-delta windows it can dump when
// something goes wrong, and a watchdog evaluates pluggable health rules
// against each window, raising typed alerts (dead link, credit-stall
// storm, ring-full burst, master-abort storm).
//
// Threading model: the simulation owns one goroutine; HTTP handlers run
// on others. All sampling — snapshot capture, delta computation,
// watchdog evaluation — happens inside the simulation loop via
// core.Cluster.SetSampleHook, so rules may reason about sim state with
// no cross-thread coordination and alert timing is deterministic in
// virtual time. The scrape path reads the same Source the sampler does
// (Source.Metrics must be safe for concurrent use; every counting layer
// keeps atomics) plus mutex-guarded copies published by the sampler,
// so scraping never pauses the simulation.
package monitor

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Source is what the monitor observes: one snapshot that the sampled
// windows (flight recorder, watchdog) and the scrape endpoints all
// read. Metrics must be safe to call concurrently with a running
// simulation; every counting layer keeps its series in atomics.
type Source interface {
	Metrics() trace.Snapshot
}

// DefaultSampleEvery is the default width of one sampling window in
// virtual time. 100 us is fine-grained enough that a multi-millisecond
// incident spans many windows, and coarse enough that snapshotting is
// far off any hot path.
const DefaultSampleEvery = 100 * sim.Microsecond

// Monitor ties the sampler, flight recorder, watchdog and HTTP server
// together.
type Monitor struct {
	src      Source
	interval sim.Time
	linkFn   func() []core.LinkStatus
	autoDump string
	profiler *prof.Profiler

	recorder *FlightRecorder
	watchdog *Watchdog

	mu         sync.Mutex
	lastSample sim.Time
	dumpErr    string
	samples    atomic.Uint64

	srv *httpServer
}

// Option customizes a Monitor.
type Option func(*Monitor)

// WithSampleEvery sets the virtual-time width of one sampling window.
func WithSampleEvery(d sim.Time) Option {
	return func(m *Monitor) {
		if d > 0 {
			m.interval = d
		}
	}
}

// WithRecorderWindows bounds the flight recorder to the most recent n
// windows.
func WithRecorderWindows(n int) Option {
	return func(m *Monitor) { m.recorder = NewFlightRecorder(n) }
}

// WithRules replaces the default watchdog rule set.
func WithRules(rules ...Rule) Option {
	return func(m *Monitor) { m.watchdog.SetRules(rules) }
}

// WithAlertCallback registers fn to run whenever an alert is raised or
// resolved. Callbacks run on the simulation goroutine inside the sample
// hook; keep them short and never touch the engine from them.
func WithAlertCallback(fn func(Alert)) Option {
	return func(m *Monitor) { m.watchdog.OnAlert(fn) }
}

// WithAutoDump makes every raised alert dump the flight recorder's
// pre-incident windows to path (overwriting earlier dumps, so the file
// always holds the windows leading into the most recent incident).
func WithAutoDump(path string) Option {
	return func(m *Monitor) { m.autoDump = path }
}

// WithLinkStatus installs the per-window link status source, called on
// the simulation goroutine.
func WithLinkStatus(fn func() []core.LinkStatus) Option {
	return func(m *Monitor) { m.linkFn = fn }
}

// WithTracer routes watchdog alert events (trace.KindAlert /
// KindAlertResolved) into the cluster's tracer.
func WithTracer(t trace.Tracer) Option {
	return func(m *Monitor) { m.watchdog.SetTracer(t) }
}

// WithProfiler exposes a packet-lifecycle profiler's summary over the
// /profile endpoint. Its phase and PDES series reach /metrics through
// the Source. The profiler's histograms are atomics, so reading it
// mid-run is safe and never perturbs the simulation.
func WithProfiler(p *prof.Profiler) Option {
	return func(m *Monitor) { m.profiler = p }
}

// Profiler returns the attached profiler, nil when none was installed.
func (m *Monitor) Profiler() *prof.Profiler { return m.profiler }

// New builds a Monitor over src. It does not listen anywhere until
// Serve is called, and does not sample until its OnSample is wired into
// the simulation loop (core.Cluster.SetSampleHook(m.Interval(),
// m.OnSample)).
func New(src Source, opts ...Option) *Monitor {
	m := &Monitor{
		src:      src,
		interval: DefaultSampleEvery,
		recorder: NewFlightRecorder(DefaultRecorderWindows),
		watchdog: NewWatchdog(DefaultRules()...),
	}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// Interval returns the sampling window width.
func (m *Monitor) Interval() sim.Time { return m.interval }

// Recorder returns the flight recorder.
func (m *Monitor) Recorder() *FlightRecorder { return m.recorder }

// Watchdog returns the alert watchdog.
func (m *Monitor) Watchdog() *Watchdog { return m.watchdog }

// OnSample ingests one sampling tick. It must be called from the
// simulation goroutine (core.Cluster.SetSampleHook does); it snapshots
// the source, closes a flight-recorder window, and runs the watchdog
// over it.
func (m *Monitor) OnSample(now sim.Time) {
	var links []core.LinkStatus
	if m.linkFn != nil {
		links = m.linkFn()
	}
	w := m.recorder.Record(now, m.src.Metrics(), links)
	raised := m.watchdog.Evaluate(w)
	m.mu.Lock()
	m.lastSample = now
	m.mu.Unlock()
	m.samples.Add(1)
	if len(raised) > 0 && m.autoDump != "" {
		if err := m.recorder.DumpFile(m.autoDump, "alert: "+raised[0].Message); err != nil {
			// An unwritable dump path must not kill the simulation;
			// surface it through the health endpoint instead.
			m.mu.Lock()
			m.dumpErr = err.Error()
			m.mu.Unlock()
		}
	}
}

// LastSample returns the virtual time of the most recent sample and how
// many samples have been taken.
func (m *Monitor) LastSample() (sim.Time, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastSample, m.samples.Load()
}

// ActiveAlerts returns currently unresolved alerts.
func (m *Monitor) ActiveAlerts() []Alert { return m.watchdog.Active() }

// Serve starts the HTTP endpoint on addr (host:port; :0 picks an
// ephemeral port — read it back with Addr).
func (m *Monitor) Serve(addr string) error {
	if m.srv != nil {
		return fmt.Errorf("monitor: already serving on %s", m.srv.addr())
	}
	srv, err := newHTTPServer(m, addr)
	if err != nil {
		return err
	}
	m.srv = srv
	return nil
}

// Addr returns the bound listen address, empty before Serve.
func (m *Monitor) Addr() string {
	if m.srv == nil {
		return ""
	}
	return m.srv.addr()
}

// Close stops the HTTP server if one is running.
func (m *Monitor) Close() error {
	if m.srv == nil {
		return nil
	}
	err := m.srv.close()
	m.srv = nil
	return err
}
