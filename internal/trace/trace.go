// Package trace is the cluster-wide observability substrate: every
// layer of the TCCluster model — HT links, northbridges, the message
// library, MPI collectives, firmware boot phases — emits typed events
// into a Tracer, and Snapshot is the one exchange type for the counters,
// gauges and latency histograms each layer keeps, keyed by
// node/link/channel.
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
// Capacity events and counts what it had to drop. It derives no
// metrics — every series comes from the layer that counts it. It is
// mutex-guarded so tests and exporters reading mid-run stay race-free.
type Collector struct {
	mu      sync.Mutex
	buf     []Event // ring storage
	start   int     // index of the oldest event
	count   int     // events currently stored
	total   uint64  // events ever emitted
	dropped uint64
}

// NewCollector returns a Collector keeping at most capacity events
// (minimum 16).
func NewCollector(capacity int) *Collector {
	if capacity < 16 {
		capacity = 16
	}
	return &Collector{buf: make([]Event, capacity)}
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
