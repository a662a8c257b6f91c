// Package trace is the cluster-wide observability substrate: every
// layer of the TCCluster model — HT links, northbridges, the message
// library, MPI collectives, firmware boot phases — emits typed events
// into a Tracer, and a metrics registry aggregates counters, gauges and
// latency histograms keyed by node/link/channel.
//
// The design mirrors what APEnet+ (arXiv:1102.3796) ships as hardware
// event counters: interconnect tuning is impossible without a uniform
// view of per-packet serialization, credit stalls, ring occupancy and
// barrier skew. Here the same taxonomy is a software contract.
//
// Tracing is strictly opt-in and free when disabled: every emission
// site guards with a single nil check, so the hot send/poll paths pay
// one predictable branch. The standard Tracer implementation is
// Collector, a bounded ring buffer whose contents export to a Chrome
// trace_event JSON file (viewable in Perfetto or chrome://tracing) or
// CSV.
package trace

import (
	"fmt"
	"sync"

	"repro/internal/sim"
)

// Kind is the type tag of a trace event. The taxonomy is fixed so
// exporters and assertions can switch on it.
type Kind uint8

const (
	// KindPacketSent fires when a link port begins serializing a packet
	// (Link = link id, Src/Dst = port sides, Seq = per-port packet
	// number, Bytes = wire bytes).
	KindPacketSent Kind = iota + 1
	// KindPacketDelivered fires when the peer port delivers the same
	// packet (same Link/Seq as the matching KindPacketSent).
	KindPacketDelivered
	// KindCreditStall fires when a packet had to wait for flow-control
	// credits before serialization.
	KindCreditStall
	// KindRingFull fires when a message-library sender finds the
	// receive ring full and must poll flow control (Src/Dst = channel
	// endpoints).
	KindRingFull
	// KindBarrierEnter and KindBarrierExit bracket one rank's stay in
	// an MPI barrier (Node = rank, Seq = barrier epoch).
	KindBarrierEnter
	KindBarrierExit
	// KindBootPhase fires when firmware records a boot phase (Node =
	// machine index, Label = phase name).
	KindBootPhase
	// KindRendezvousStart and KindRendezvousDone bracket one MPI
	// rendezvous transfer (Node = sender rank, Dst = receiver rank,
	// Bytes = payload).
	KindRendezvousStart
	KindRendezvousDone
	// KindForward fires when a northbridge forwards a transit packet
	// toward an egress link (Node = supernode index).
	KindForward
	// KindMasterAbort fires when an address decodes to nothing — a
	// routing fault (Node = supernode index).
	KindMasterAbort
	// KindAlert fires when a monitor watchdog rule raises an alert
	// (Label = rule name and detail, Node/Link = the alert's scope,
	// -1 when unscoped).
	KindAlert
	// KindAlertResolved fires when the condition behind a previously
	// raised alert clears (same Label/Node/Link as the KindAlert).
	KindAlertResolved
	// KindLinkState fires when a fault campaign moves an external link
	// through its health state machine (Link = link id, Label = the new
	// state: alive, degraded, dead, retraining).
	KindLinkState
	// KindPhaseSpan is a profiler-emitted duration span: one packet's
	// stay in one lifecycle phase (Label = phase name, Dur = span
	// length, At = span start). Emitted only under WithProfile(...,
	// spans) and rendered as complete ("X") slices by the Chrome
	// exporter.
	KindPhaseSpan
)

func (k Kind) String() string {
	switch k {
	case KindPacketSent:
		return "packet-sent"
	case KindPacketDelivered:
		return "packet-delivered"
	case KindCreditStall:
		return "credit-stall"
	case KindRingFull:
		return "ring-full"
	case KindBarrierEnter:
		return "barrier-enter"
	case KindBarrierExit:
		return "barrier-exit"
	case KindBootPhase:
		return "boot-phase"
	case KindRendezvousStart:
		return "rendezvous-start"
	case KindRendezvousDone:
		return "rendezvous-done"
	case KindForward:
		return "forward"
	case KindMasterAbort:
		return "master-abort"
	case KindAlert:
		return "alert"
	case KindAlertResolved:
		return "alert-resolved"
	case KindLinkState:
		return "link-state"
	case KindPhaseSpan:
		return "phase-span"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one observation. Fields not meaningful for a Kind are -1
// (indices) or zero. Events are plain values: emitting one allocates
// nothing beyond its Label string, and Labels are only built inside
// the tracer nil check.
type Event struct {
	At    sim.Time // virtual timestamp
	Dur   sim.Time // span length (KindPhaseSpan only), else 0
	Kind  Kind
	Node  int    // supernode / rank index, -1 when not applicable
	Link  int    // external link id, -1 when not applicable
	Src   int    // port side, channel source, or sender rank
	Dst   int    // port side, channel destination, or receiver rank
	Seq   uint64 // per-port packet number, barrier epoch, phase index
	Bytes int    // wire or payload bytes
	Label string // packet rendering, boot phase name, free-form detail
}

// Tracer consumes trace events. Implementations must tolerate emission
// from inside simulation callbacks; Collector is the standard one.
// A nil Tracer disables tracing — every instrumented layer guards each
// emission with one nil check and skips all event construction.
type Tracer interface {
	Emit(Event)
}

// Collector is a bounded ring-buffer Tracer: it keeps the most recent
// Capacity events, counts what it had to drop, and feeds the derived
// metrics registry (per-link packet latency histograms, per-kind event
// counters). It is mutex-guarded so the live (goroutine) backend and
// tests reading mid-run stay race-free.
type Collector struct {
	mu      sync.Mutex
	buf     []Event // ring storage
	start   int     // index of the oldest event
	count   int     // events currently stored
	total   uint64  // events ever emitted
	dropped uint64

	metrics  *Metrics
	inFlight map[flightKey]sim.Time // sent-but-undelivered packets
}

type flightKey struct {
	link, side int
	seq        uint64
}

// NewCollector returns a Collector keeping at most capacity events
// (minimum 16).
func NewCollector(capacity int) *Collector {
	if capacity < 16 {
		capacity = 16
	}
	return &Collector{
		buf:      make([]Event, capacity),
		metrics:  NewMetrics(),
		inFlight: make(map[flightKey]sim.Time),
	}
}

// Emit records ev, evicting the oldest event when the ring is full.
func (c *Collector) Emit(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total++
	if c.count == len(c.buf) {
		c.start = (c.start + 1) % len(c.buf)
		c.count--
		c.dropped++
	}
	c.buf[(c.start+c.count)%len(c.buf)] = ev
	c.count++
	c.observe(ev)
}

// observe maintains the derived metrics. Called with the lock held.
func (c *Collector) observe(ev Event) {
	c.metrics.Counter(Key{Name: "events." + ev.Kind.String()}).Add(1)
	switch ev.Kind {
	case KindPacketSent:
		c.metrics.Counter(Key{Name: "link.pkts_sent", Link: ev.Link}).Add(1)
		c.metrics.Counter(Key{Name: "link.bytes_sent", Link: ev.Link}).Add(uint64(ev.Bytes))
		c.inFlight[flightKey{ev.Link, ev.Src, ev.Seq}] = ev.At
	case KindPacketDelivered:
		k := flightKey{ev.Link, ev.Src, ev.Seq}
		if t0, ok := c.inFlight[k]; ok {
			delete(c.inFlight, k)
			c.metrics.Histogram(Key{Name: "link.packet_latency_ps", Link: ev.Link}).
				Observe(ev.At - t0)
		}
	case KindCreditStall:
		c.metrics.Counter(Key{Name: "link.credit_stalls", Link: ev.Link}).Add(1)
	case KindRingFull:
		c.metrics.Counter(Key{Name: "chan.ring_full", Node: ev.Src, Chan: ev.Dst}).Add(1)
	case KindBarrierEnter:
		c.inFlight[flightKey{-1, ev.Node, ev.Seq}] = ev.At
	case KindBarrierExit:
		k := flightKey{-1, ev.Node, ev.Seq}
		if t0, ok := c.inFlight[k]; ok {
			delete(c.inFlight, k)
			c.metrics.Histogram(Key{Name: "mpi.barrier_ps", Node: ev.Node}).
				Observe(ev.At - t0)
		}
	case KindRendezvousStart:
		c.metrics.Counter(Key{Name: "mpi.rendezvous", Node: ev.Node}).Add(1)
	case KindAlert:
		c.metrics.Counter(Key{Name: "alerts.raised"}).Add(1)
	case KindAlertResolved:
		c.metrics.Counter(Key{Name: "alerts.resolved"}).Add(1)
	case KindLinkState:
		c.metrics.Counter(Key{Name: "link.state_changes", Link: ev.Link}).Add(1)
	}
}

// Events returns the buffered events, oldest first.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, c.count)
	for i := 0; i < c.count; i++ {
		out[i] = c.buf[(c.start+i)%len(c.buf)]
	}
	return out
}

// Total returns how many events were ever emitted.
func (c *Collector) Total() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Dropped returns how many events the bounded ring evicted.
func (c *Collector) Dropped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Metrics returns the registry of metrics derived from the event
// stream.
func (c *Collector) Metrics() *Metrics { return c.metrics }

// Reset discards buffered events and derived state; the metrics
// registry is replaced.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.start, c.count, c.total, c.dropped = 0, 0, 0, 0
	c.metrics = NewMetrics()
	c.inFlight = make(map[flightKey]sim.Time)
}
