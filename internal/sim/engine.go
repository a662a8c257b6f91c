// Package sim provides a deterministic discrete-event simulation engine
// with picosecond-resolution virtual time.
//
// The engine is the substrate for every timed model in this repository:
// HyperTransport links, northbridge pipelines, memory controllers and the
// baseline NIC models all schedule their work as events on a shared
// Engine. Determinism is guaranteed by a strict (at, sat, pri, seq)
// ordering of events: fire time, then the virtual time of the Schedule
// call, then a lineage priority inherited from the scheduling event, then
// the engine's sequence number. Events for the same instant fire in the
// order they were scheduled, except that among those scheduled at one
// virtual time, the earlier root lineage goes first.
//
// Events are scheduled through a typed API: a Handler receives an
// EventArg carrying one pointer and one integer, which covers every model
// in the tree without per-event closure allocations. The closure-based
// At/After entry points remain as thin adapters (a func value converts to
// the Handler interface without allocating). Pending events live in an
// arena-backed ladder queue (see queue.go); NewLegacyEngine selects the
// seed container/heap queue instead, kept as a determinism oracle and
// benchmark baseline.
//
// A cluster drives its engines through one run loop, Parallel (see
// parallel.go): a serial cluster is its one-partition case. The loop,
// not the engine, owns the cuts of the timeline — monitor samples and
// scripted fault actions — so the engine's per-event path is a single
// bounded pop and a dispatch.
package sim

import (
	"fmt"
)

// Time is a point in virtual time, measured in picoseconds. Picoseconds
// give headroom to represent sub-nanosecond link serialization quanta
// (one 16-bit HT transfer at 5.2 GT/s lasts ~192 ps) without rounding.
type Time int64

// Duration units for constructing Time values.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanos returns t expressed in nanoseconds as a float.
func (t Time) Nanos() float64 { return float64(t) / float64(Nanosecond) }

// Micros returns t expressed in microseconds as a float.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Seconds returns t expressed in seconds as a float.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string {
	if t < 0 && t != -t { // -t overflows only for the most negative Time
		return "-" + (-t).String()
	}
	switch {
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3gns", t.Nanos())
	case t < Millisecond:
		return fmt.Sprintf("%.4gus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.4gms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4gs", t.Seconds())
	}
}

// FromNanos converts a nanosecond count to a Time, rounding to the
// nearest picosecond.
func FromNanos(ns float64) Time { return Time(ns*1000 + 0.5) }

// EventArg is the payload delivered to a Handler when its event fires.
// Ptr carries a pointer-shaped value (storing a pointer in an interface
// does not allocate); I carries a scalar, typically an opcode or an
// opcode packed with small operands. Both may be zero.
type EventArg struct {
	Ptr any
	I   int64
}

// Handler receives events. Implementations dispatch on arg (commonly an
// opcode in arg.I plus a record pointer in arg.Ptr), which lets one
// long-lived object service many event kinds without any per-event
// closure.
type Handler interface {
	OnEvent(e *Engine, arg EventArg)
}

// funcHandler adapts a plain func() to Handler. A func value is
// pointer-shaped, so the conversion to Handler does not allocate — At
// and After stay as cheap as Schedule.
type funcHandler func()

func (f funcHandler) OnEvent(*Engine, EventArg) { f() }

// Engine is a discrete-event simulator. The zero value is ready to use.
// Engine is not safe for concurrent use; the whole point is a single
// deterministic timeline.
type Engine struct {
	now    Time
	seq    uint64
	fired  uint64
	halted bool

	// Lineage priority state (see queue.go's ordering contract). While a
	// handler runs, firing is true and curPri carries the executing
	// event's priority, which every event it schedules inherits. Outside
	// handlers, Schedule draws a fresh root priority from rootPri — by
	// default the engine's own counter, but partition engines of one
	// parallel cluster share a single counter (SharePriorityCounter) so
	// root draws land in driver-call order exactly as a serial run's.
	firing  bool
	curPri  uint64
	ownRoot uint64
	rootPri *uint64

	// Parallel-window state (see parallel.go). winCap is the dynamic
	// bound runEvents honors: it starts at the window deadline and
	// shrinks when this partition posts cross-partition mail, capping
	// how far the partition may run ahead of its own round-trip
	// consequences. postLook2 is twice the executor's lookahead — the
	// minimum virtual-time cost of any causal chain that leaves this
	// partition and returns to it. Both are zero outside parallel runs.
	winCap    Time
	postLook2 Time

	// mailDirty lists the mailboxes this engine posted to since the
	// last barrier. The coordinator flips exactly these at the next
	// barrier instead of scanning the full partition-pair matrix; the
	// slice is truncated (capacity kept) after every flip. Only the
	// producer partition's goroutine appends, only the coordinator
	// clears, and the two are ordered by the barrier handoff.
	mailDirty []*Mailbox

	q      ladder       // default queue: arena-backed ladder
	legacy *legacyQueue // non-nil selects the seed container/heap queue
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// NewLegacyEngine returns an engine backed by the seed-era
// container/heap event queue. Both queues implement the same strict
// (at, sat, pri, seq) contract; the legacy queue survives as the oracle the
// determinism suite compares the ladder queue against.
func NewLegacyEngine() *Engine { return &Engine{legacy: &legacyQueue{}} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are waiting to execute.
func (e *Engine) Pending() int {
	if e.legacy != nil {
		return e.legacy.len()
	}
	return e.q.n
}

// Schedule queues h to receive arg at absolute virtual time t.
// Scheduling into the past panics: a causal model must never rewind the
// clock.
func (e *Engine) Schedule(t Time, h Handler, arg EventArg) {
	e.scheduleKeyed(t, e.now, e.eventPri(), h, arg)
}

// scheduleKeyed queues h with an explicit schedule stamp and lineage
// priority. Local scheduling stamps with now and the current lineage;
// the parallel executor's mailboxes carry both from the sender
// partition, which reproduces the same-timestamp arbitration order a
// serial run would have produced (see queue.go's ordering contract).
func (e *Engine) scheduleKeyed(t, sat Time, pri uint64, h Handler, arg EventArg) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before now %v", t, e.now))
	}
	e.seq++
	if e.legacy != nil {
		e.legacy.push(t, sat, pri, e.seq, h, arg)
		return
	}
	e.q.push(t, sat, pri, e.seq, h, arg)
}

// eventPri returns the lineage priority for an event scheduled now: the
// executing event's priority inside a handler, a fresh root draw outside
// one.
func (e *Engine) eventPri() uint64 {
	if e.firing {
		return e.curPri
	}
	if e.rootPri == nil {
		e.rootPri = &e.ownRoot
	}
	*e.rootPri++
	return *e.rootPri
}

// SharePriorityCounter makes e draw root priorities from with's counter.
// The parallel executor calls it on every partition engine so events
// scheduled from driver context (workload setup between runs) are
// prioritized in global call order, exactly as a single serial engine
// would have numbered them. Sharing is only safe while all scheduling
// outside handlers happens from one goroutine, which the coordinator
// guarantees.
func (e *Engine) SharePriorityCounter(with *Engine) {
	if with.rootPri == nil {
		with.rootPri = &with.ownRoot
	}
	e.rootPri = with.rootPri
}

// ScheduleAfter queues h to receive arg d picoseconds after now.
func (e *Engine) ScheduleAfter(d Time, h Handler, arg EventArg) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.Schedule(e.now+d, h, arg)
}

// At schedules fn to run at absolute virtual time t.
func (e *Engine) At(t Time, fn func()) {
	e.Schedule(t, funcHandler(fn), EventArg{})
}

// After schedules fn to run d picoseconds after the current time.
func (e *Engine) After(d Time, fn func()) {
	e.ScheduleAfter(d, funcHandler(fn), EventArg{})
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool { return e.step(maxTime) }

// step executes the earliest pending event if its timestamp is at or
// before limit: one bounded pop per event, no separate peek.
func (e *Engine) step(limit Time) bool {
	var (
		at  Time
		pri uint64
		h   Handler
		arg EventArg
	)
	if e.legacy != nil {
		ev, ok := e.legacy.popUntil(limit)
		if !ok {
			return false
		}
		at, pri, h, arg = ev.at, ev.pri, ev.h, ev.arg
	} else {
		en, ok := e.q.popUntil(limit)
		if !ok {
			return false
		}
		at, pri = en.at, en.pri
		// Release before dispatch so a handler that reschedules itself
		// reuses the slot it just vacated.
		h, arg = e.q.release(en.ref())
	}
	e.now = at
	e.fired++
	e.curPri, e.firing = pri, true
	h.OnEvent(e, arg)
	e.firing = false
	return true
}

// nextTime reports the timestamp of the earliest pending event.
func (e *Engine) nextTime() (Time, bool) {
	if e.legacy != nil {
		return e.legacy.peek()
	}
	return e.q.peek()
}

// Run executes events until none remain or Halt is called.
func (e *Engine) Run() {
	e.halted = false
	for !e.halted && e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline. Events beyond the deadline stay pending.
func (e *Engine) RunUntil(deadline Time) {
	e.halted = false
	for !e.halted && e.step(deadline) {
	}
	if !e.halted && e.now < deadline {
		e.now = deadline
	}
}

// RunFor executes events for d picoseconds of virtual time from now.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// runEvents executes events with timestamps <= deadline but, unlike
// RunUntil, leaves the clock at the last fired event instead of jumping
// to the deadline. The run loop (parallel.go) uses it so a window bound
// (which is a synchronization artifact, not a workload time) never
// shows up in the final virtual time. The deadline is dynamic: posting
// cross-partition mail shrinks it (via winCap) to the post time plus
// twice the lookahead, the earliest instant a consequence of that mail
// could return to this partition. Halt does not apply: the run loop
// owns the stopping rule.
func (e *Engine) runEvents(deadline Time) {
	e.winCap = deadline
	for e.step(e.winCap) {
	}
}

// Halt stops Run/RunUntil after the currently executing event returns.
// It is intended to be called from inside an event callback.
func (e *Engine) Halt() { e.halted = true }

// AlignTo advances the clock to t without executing anything: a no-op
// when the clock is already at or past t, a panic when a pending event
// would be skipped by the jump. The run loop uses it to park every
// engine exactly on a cut of the timeline (a monitor sample or a fault
// action) — after all events before it, before any event at or after
// it — so the cut observes the same instant under one partition or
// many.
func (e *Engine) AlignTo(t Time) {
	if t <= e.now {
		return
	}
	if next, ok := e.nextTime(); ok && next < t {
		panic(fmt.Sprintf("sim: AlignTo(%v) would skip an event pending at %v", t, next))
	}
	e.now = t
}

// WarpTo jumps an idle engine's clock forward to t without executing
// anything. The parallel executor uses it to start freshly created
// partition engines at the boot-end time of the engine that booted the
// cluster. Warping an engine with pending events would silently skip
// them, so that panics, as does warping backwards.
func (e *Engine) WarpTo(t Time) {
	if e.Pending() != 0 {
		panic(fmt.Sprintf("sim: WarpTo(%v) with %d events pending", t, e.Pending()))
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: WarpTo(%v) before now %v", t, e.now))
	}
	e.now = t
}
