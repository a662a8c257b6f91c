// Conservative parallel execution: a set of partition engines advanced
// in lockstep over global time windows bounded by cross-partition
// lookahead (the minimum latency any partition needs before it can be
// influenced by another). Within a window every partition is causally
// independent, so partitions run concurrently on worker goroutines;
// cross-partition events travel through Mailboxes that are handed over
// only at window boundaries, under the coordinator's happens-before.
//
// The scheme is the classical synchronous conservative PDES barrier
// (Chandy-Misra lookahead without null messages), sharpened in two
// ways. First, the bound is per partition pair: partition p may run to
// min over peers q of (next_q + dist(q, p)), where dist is the
// all-pairs shortest cross-partition latency (Floyd-Warshall over the
// partition quotient graph), not the single global minimum. Second, a
// partition whose peers are all idle is unconstrained and fast-forwards
// to the run deadline in one window — and snaps back to narrow windows
// the moment a peer posts mail, because the post both caps the producer
// (Mailbox.Post) and re-arms the consumer's horizon at the next
// barrier. An idle consumer's clock stays parked until mail arrives, so
// a post landing mid-widened-window is still delivered and executed at
// its exact virtual time.
package sim

import (
	"fmt"
	"math/bits"
	"sync"
	"time"
)

// maxTime is the largest representable virtual time, used as the window
// bound when the horizon is unbounded.
const maxTime = Time(1<<63 - 1)

// MailEntry is one deferred cross-partition event: schedule h/arg at
// absolute time At on the destination partition's engine. SchedAt and
// Pri are the producer partition's clock and lineage priority at post
// time; they become the event's ordering keys on the consumer engine, so
// same-timestamp arbitration (queue.go's (at, sat, pri, seq) order)
// resolves exactly as it would have in a serial run where the sender
// scheduled the event directly.
type MailEntry struct {
	At      Time
	SchedAt Time
	Pri     uint64
	H       Handler
	Arg     EventArg
}

// Mailbox is a single-producer single-consumer transfer queue between
// two partitions. The producer partition appends to the inflight slice
// during a window; the coordinator flips inflight to ready at the
// barrier (when neither worker is running); the consumer partition
// drains ready into its engine at the start of the next window. All
// handoffs are ordered by the barrier's channel synchronization, so no
// mutex or atomic is needed on the Post path. Both slices retain their
// capacity across windows, so a steady-state run allocates nothing on
// the mail path.
type Mailbox struct {
	inflight []MailEntry
	ready    []MailEntry

	// readyMin caches the earliest At over ready entries (maxTime when
	// ready is empty), so the coordinator's horizon scan touches only
	// one word per queued mailbox instead of every entry.
	readyMin Time

	// From and To label the producer and consumer partitions for the
	// profiler's traffic matrix. Purely descriptive; set by whoever
	// wires the mailbox between partitions.
	From, To int

	// Executor wiring, set by NewParallel: cons is the consuming
	// partition (derived from the inboxes lists, independent of the
	// descriptive From/To), idx the mailbox's global wiring order —
	// the stable drain-order key that keeps seq tiebreaks for
	// identical (at, sat, pri) entries bit-identical to a fixed
	// inbox-scan drain. dirty marks membership in the producer
	// engine's mailDirty list, queued membership in the consumer's
	// readyBoxes list.
	cons   int
	idx    int
	dirty  bool
	queued bool
}

// Post records an event for the consumer partition, stamped with the
// producer engine's clock and current lineage priority. Only the
// producer partition's goroutine may call Post, and only while its
// window runs. Posting shrinks the producer's dynamic window bound to
// now + 2·lookahead: any causal chain triggered by this mail needs at
// least two cross-partition hops to come back, so the producer must
// not run past that horizon inside the current window. The first post
// into a quiet mailbox also enrolls it in the producer's dirty list —
// the coordinator flips only dirty mailboxes at the barrier.
func (mb *Mailbox) Post(from *Engine, at Time, h Handler, arg EventArg) {
	if from.postLook2 > 0 {
		if cap := from.now + from.postLook2; cap < from.winCap {
			from.winCap = cap
		}
	}
	if !mb.dirty {
		mb.dirty = true
		from.mailDirty = append(from.mailDirty, mb)
	}
	mb.inflight = append(mb.inflight, MailEntry{
		At: at, SchedAt: from.now, Pri: from.eventPri(), H: h, Arg: arg,
	})
}

// flip publishes inflight entries to the consumer side and refreshes
// readyMin. Coordinator only. Ready entries not yet drained (because
// the previous run ended before their partition's next window) are kept
// ahead of new ones.
func (mb *Mailbox) flip() {
	for i := range mb.inflight {
		if at := mb.inflight[i].At; at < mb.readyMin {
			mb.readyMin = at
		}
	}
	if len(mb.ready) == 0 {
		mb.inflight, mb.ready = mb.ready, mb.inflight
		return
	}
	mb.ready = append(mb.ready, mb.inflight...)
	mb.inflight = mb.inflight[:0]
}

// drainInto schedules every ready entry on the consumer's engine and
// clears the slice. Consumer partition only, at window start.
func (mb *Mailbox) drainInto(e *Engine) {
	for i := range mb.ready {
		en := &mb.ready[i]
		e.scheduleKeyed(en.At, en.SchedAt, en.Pri, en.H, en.Arg)
		en.H, en.Arg = nil, EventArg{} // drop references for GC
	}
	mb.ready = mb.ready[:0]
	mb.readyMin = maxTime
}

// Parallel advances a set of partition engines in conservative time
// windows. It is driven from a single control goroutine (the same one
// that owns the engines between runs); worker goroutines are spawned
// once, on the first run, and park on their command channels between
// windows, so repeated runs pay no spawn cost.
type Parallel struct {
	engs    []*Engine
	inboxes [][]*Mailbox // inboxes[p]: mailboxes consumed by partition p
	look    Time

	// dist[q][p] is the minimum cross-partition virtual latency of any
	// causal chain from partition q to partition p (all-pairs shortest
	// path over per-pair direct lookaheads; maxTime when unreachable,
	// 0 on the diagonal). Nil selects the uniform fallback: every pair
	// at distance look over a complete influence graph.
	dist [][]Time

	barrier func() // serial section at each window boundary

	sampleEvery Time
	sampleNext  Time
	sampleFn    func(now Time)

	actionNext func() (Time, bool) // earliest pending scripted action
	actionFire func(now Time)      // apply every action due at now

	active []bool // scratch: partitions with work this window
	nexts  []Time // scratch: per-partition earliest pending time
	bounds []Time // scratch: per-partition window bound

	// readyBoxes[p] lists mailboxes holding undelivered ready entries
	// for partition p, kept sorted by wiring order (Mailbox.idx) so the
	// consumer drains them in the same fixed order a full inbox scan
	// would. The coordinator enqueues at the barrier; the consumer
	// truncates after draining, capacity retained.
	readyBoxes [][]*Mailbox

	// Worker pool: spawned lazily the first time a run dispatches more
	// than one partition, parked on their command channels between
	// windows, and stopped when the run returns — so an executor between
	// runs holds no goroutines and a finished cluster can be collected.
	cmds    []chan Time
	done    chan int
	workers sync.WaitGroup

	stats *ParallelStats // nil = no runtime accounting (zero cost)
}

// NewParallel builds an executor over engs. inboxes[p] lists the
// mailboxes whose entries are destined for partition p. look is the
// cross-partition lookahead; it must be positive, otherwise the window
// never advances past the earliest event and the barrier livelocks.
func NewParallel(engs []*Engine, inboxes [][]*Mailbox, look Time) (*Parallel, error) {
	if len(engs) < 1 {
		return nil, fmt.Errorf("sim: parallel executor needs at least one engine")
	}
	if len(inboxes) != len(engs) {
		return nil, fmt.Errorf("sim: %d inbox sets for %d engines", len(inboxes), len(engs))
	}
	if look <= 0 {
		return nil, fmt.Errorf("sim: non-positive lookahead %v livelocks the window barrier", look)
	}
	// One root-priority counter across all partitions keeps driver-side
	// scheduling (workload setup between runs) numbered in global call
	// order, matching what a single serial engine would have assigned.
	for _, e := range engs[1:] {
		e.SharePriorityCounter(engs[0])
	}
	// Arm the dynamic window cap: a partition that posts mail may not
	// run past post-time + 2·look within the same window (see
	// Mailbox.Post).
	for _, e := range engs {
		e.postLook2 = 2 * look
	}
	p := &Parallel{
		engs:       engs,
		inboxes:    inboxes,
		look:       look,
		active:     make([]bool, len(engs)),
		nexts:      make([]Time, len(engs)),
		bounds:     make([]Time, len(engs)),
		readyBoxes: make([][]*Mailbox, len(engs)),
	}
	// Wire every mailbox to its consumer and stamp the global wiring
	// order that fixes drain order across dirty-set handoffs. A mailbox
	// handed over with entries already published is enqueued right away.
	idx := 0
	for pi, boxes := range inboxes {
		for _, mb := range boxes {
			mb.cons = pi
			mb.idx = idx
			idx++
			mb.readyMin = maxTime
			for i := range mb.ready {
				if at := mb.ready[i].At; at < mb.readyMin {
					mb.readyMin = at
				}
			}
			if len(mb.ready) > 0 && !mb.queued {
				mb.queued = true
				p.enqueueReady(mb)
			}
		}
	}
	return p, nil
}

// Lookahead returns the minimum cross-partition lookahead the executor
// synchronizes on.
func (p *Parallel) Lookahead() Time { return p.look }

// SetPairLookahead installs the direct cross-partition latency matrix:
// direct[q][p] is the minimum virtual latency of mail posted by
// partition q for partition p, or 0 when q never posts to p directly.
// The executor closes the matrix under composition (Floyd-Warshall), so
// a partition's window bound accounts for multi-hop influence chains
// through idle intermediates. Every finite direct entry must be at
// least the executor's global lookahead — the producer-side window cap
// (Mailbox.Post) is derived from it.
func (p *Parallel) SetPairLookahead(direct [][]Time) error {
	n := len(p.engs)
	if len(direct) != n {
		return fmt.Errorf("sim: pair lookahead matrix is %dx, want %dx%d", len(direct), n, n)
	}
	d := make([][]Time, n)
	for i := range d {
		if len(direct[i]) != n {
			return fmt.Errorf("sim: pair lookahead row %d has %d entries, want %d", i, len(direct[i]), n)
		}
		d[i] = make([]Time, n)
		for j := range d[i] {
			w := direct[i][j]
			switch {
			case i == j:
				d[i][j] = 0
			case w <= 0:
				d[i][j] = maxTime
			case w < p.look:
				return fmt.Errorf("sim: pair lookahead %v for %d->%d below global lookahead %v", w, i, j, p.look)
			default:
				d[i][j] = w
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := d[i][k]
			if dik == maxTime {
				continue
			}
			for j := 0; j < n; j++ {
				if dkj := d[k][j]; dkj != maxTime && dik+dkj < d[i][j] {
					d[i][j] = dik + dkj
				}
			}
		}
	}
	p.dist = d
	return nil
}

// Now returns the global virtual time: the maximum over partition
// clocks. Between runs all clocks are aligned, so this equals each
// partition's local now.
func (p *Parallel) Now() Time {
	var now Time
	for _, e := range p.engs {
		if e.Now() > now {
			now = e.Now()
		}
	}
	return now
}

// Fired returns the total number of events executed across partitions.
func (p *Parallel) Fired() uint64 {
	var n uint64
	for _, e := range p.engs {
		n += e.Fired()
	}
	return n
}

// SetStats installs runtime accounting. st must be sized for the
// executor's partition count. Nil disables accounting; the only cost
// when disabled is one nil check per window.
func (p *Parallel) SetStats(st *ParallelStats) { p.stats = st }

// Stats returns the installed runtime accounting, if any.
func (p *Parallel) Stats() *ParallelStats { return p.stats }

// SetBarrierHook installs fn to run in the coordinator's serial section
// after every window (workers parked). Used to merge trace shards and
// repatriate cross-partition packet-pool releases.
func (p *Parallel) SetBarrierHook(fn func()) { p.barrier = fn }

// SetSampleHook arranges for fn(now) to be called from the serial
// section whenever the global clock crosses a multiple of every. It
// mirrors Engine.SetProbe for the parallel executor: windows are
// clamped to sample boundaries, so fn observes a quiesced simulation at
// (or just past) each boundary.
func (p *Parallel) SetSampleHook(every Time, fn func(now Time)) {
	if fn == nil || every <= 0 {
		p.sampleFn = nil
		return
	}
	p.sampleEvery = every
	p.sampleNext = p.Now() + every
	p.sampleFn = fn
}

// SetActionHook installs a scripted-action source (a fault campaign).
// next reports the earliest pending action's absolute time; fire applies
// every action due at that time. The coordinator clamps each window to
// end strictly before the next action, aligns all partition clocks to
// the action time, and calls fire in the serial section with every
// worker parked — so an action observes exactly the events before its
// timestamp and none at or after it, the same cut a serial engine
// produces. fire may only schedule follow-up actions strictly later
// than now.
func (p *Parallel) SetActionHook(next func() (Time, bool), fire func(now Time)) {
	p.actionNext = next
	p.actionFire = fire
}

// Run executes windows until no partition has pending events or mail.
// Pending scripted actions count as work: a rejoin scheduled on an idle
// fabric still fires.
func (p *Parallel) Run() { p.run(maxTime, false) }

// RunUntil executes windows until every event at or before deadline has
// fired, then aligns all partition clocks to the deadline.
func (p *Parallel) RunUntil(deadline Time) { p.run(deadline, true) }

// RunFor advances the cluster by d picoseconds of virtual time.
func (p *Parallel) RunFor(d Time) { p.run(p.Now()+d, true) }

// flipDirty publishes last window's mail: every mailbox posted to since
// the previous barrier is flipped and enqueued on its consumer's
// readyBoxes list, in wiring order. O(posts), independent of the
// partition-pair count. Coordinator only, workers parked.
func (p *Parallel) flipDirty(st *ParallelStats) {
	flips := 0
	for _, e := range p.engs {
		if len(e.mailDirty) == 0 {
			continue
		}
		for _, mb := range e.mailDirty {
			mb.dirty = false
			if st != nil {
				st.addMail(mb.From, mb.To, len(mb.inflight))
			}
			mb.flip()
			if !mb.queued && len(mb.ready) > 0 {
				mb.queued = true
				p.enqueueReady(mb)
			}
			flips++
		}
		e.mailDirty = e.mailDirty[:0]
	}
	if st != nil && flips > 0 {
		st.dirtyFlips.Add(uint64(flips))
	}
}

// enqueueReady inserts mb into its consumer's readyBoxes list, keeping
// the list sorted by wiring order so drains replay the fixed scan order
// and seq tiebreaks stay bit-identical to a serial run.
func (p *Parallel) enqueueReady(mb *Mailbox) {
	boxes := append(p.readyBoxes[mb.cons], mb)
	i := len(boxes) - 1
	for i > 0 && boxes[i-1].idx > mb.idx {
		boxes[i] = boxes[i-1]
		i--
	}
	boxes[i] = mb
	p.readyBoxes[mb.cons] = boxes
}

// drainReady delivers every queued ready mailbox for partition idx into
// its engine, in wiring order. Runs on the consumer partition's
// goroutine at window start; safe against the coordinator's enqueue via
// the window dispatch happens-before.
func (p *Parallel) drainReady(idx int, eng *Engine) {
	boxes := p.readyBoxes[idx]
	if len(boxes) == 0 {
		return
	}
	for i, mb := range boxes {
		mb.drainInto(eng)
		mb.queued = false
		boxes[i] = nil
	}
	p.readyBoxes[idx] = boxes[:0]
}

// execWindow drains partition idx's pending mail and runs its events up
// to bound w. Called from the partition's worker goroutine — or inline
// on the coordinator when this is the only active partition, skipping
// the channel round-trip entirely.
func (p *Parallel) execWindow(idx int, w Time) {
	eng := p.engs[idx]
	if st := p.stats; st != nil {
		t0 := time.Now()
		f0 := eng.Fired()
		p.drainReady(idx, eng)
		eng.runEvents(w)
		st.winBusy[idx] = time.Since(t0).Nanoseconds()
		st.winEvents[idx] = eng.Fired() - f0
	} else {
		p.drainReady(idx, eng)
		eng.runEvents(w)
	}
}

// run is the coordinator loop. Each iteration: flip dirty mailboxes,
// find each partition's earliest pending timestamp (events or
// undelivered mail), then execute a per-partition window on every
// partition that has work, then run the serial barrier section.
//
// Windows are adaptively widened per partition pair: partition p can
// only be influenced by a peer q through mail that costs at least
// dist(q, p) of virtual latency from q's current horizon, so p may
// safely run to min over q of (next_q + dist(q, p)) — potentially far
// past the classical global bound tnext+look. When every peer is idle
// (or unreachable) the bound degenerates to the run deadline: the lone
// active partition fast-forwards through its remaining work in a single
// window instead of draining one lookahead-sized window per iteration.
// The producer-side cap (Mailbox.Post) covers the one influence the
// matrix excludes — a chain leaving p and returning to it within the
// same window.
func (p *Parallel) run(deadline Time, bounded bool) {
	defer p.stopWorkers()
	st := p.stats
	for {
		// Serial section: publish last window's mail, find the horizon.
		var serialT0 time.Time
		if st != nil {
			serialT0 = time.Now()
		}
		p.flipDirty(st)
		tnext := maxTime
		have := false
		for pi := range p.engs {
			p.active[pi] = false
			next := maxTime
			for _, mb := range p.readyBoxes[pi] {
				if mb.readyMin < next {
					next = mb.readyMin
				}
			}
			if next < maxTime {
				p.active[pi] = true
				have = true
			}
			if t, ok := p.engs[pi].nextTime(); ok {
				if t < next {
					next = t
				}
				p.active[pi] = true
				have = true
			}
			p.nexts[pi] = next
			if next < tnext {
				tnext = next
			}
		}
		// Scripted actions (fault campaigns) cut the timeline exactly at
		// their timestamp: fire when nothing earlier is pending, otherwise
		// clamp the window to end strictly before the action.
		aat, aok := Time(0), false
		if p.actionNext != nil {
			aat, aok = p.actionNext()
			if aok && bounded && aat > deadline {
				aok = false
			}
		}
		if aok && (!have || aat <= tnext) {
			for _, e := range p.engs {
				e.AlignTo(aat)
			}
			// Fire every sample boundary the jump crosses, each at its
			// exact time (matching the serial engine's probe semantics).
			for p.sampleFn != nil && p.sampleNext <= aat {
				at := p.sampleNext
				p.sampleNext += p.sampleEvery
				p.sampleFn(at)
			}
			p.actionFire(aat)
			if st != nil {
				st.serial.Add(time.Since(serialT0).Nanoseconds())
			}
			continue
		}
		if !have || (bounded && tnext > deadline) {
			if st != nil {
				st.serial.Add(time.Since(serialT0).Nanoseconds())
			}
			break
		}

		// First and second smallest per-partition horizons, for the
		// uniform fallback (no pair matrix): partition pi's bound is the
		// smallest next over its peers, which is m1 unless pi itself is
		// the unique holder of m1, then m2.
		m1, m2, m1i := maxTime, maxTime, -1
		if p.dist == nil {
			for pi, t := range p.nexts {
				if t < m1 {
					m1, m2, m1i = t, m1, pi
				} else if t < m2 {
					m2 = t
				}
			}
		}

		// wmin is the time every active partition is guaranteed to have
		// reached after the window — the instant a pending sample hook
		// observes a fully quiesced simulation.
		wmin := maxTime
		for pi := range p.engs {
			if !p.active[pi] {
				continue
			}
			var w Time
			if p.dist != nil {
				// Per-pair bound: the earliest instant any peer's pending
				// work could influence pi.
				w = maxTime
				for qi, t := range p.nexts {
					if qi == pi || t == maxTime {
						continue
					}
					d := p.dist[qi][pi]
					if d == maxTime {
						continue
					}
					b := t + d
					if b < t { // overflow
						b = maxTime
					}
					if b < w {
						w = b
					}
				}
			} else {
				other := m1
				if pi == m1i {
					other = m2
				}
				w = other + p.look
				if w < other { // overflow (peers idle: other == maxTime)
					w = maxTime
				}
			}
			if p.sampleFn != nil && p.sampleNext > tnext && w > p.sampleNext {
				w = p.sampleNext
			}
			if aok && w >= aat {
				w = aat - 1 // aat > tnext here, so the window stays non-empty
			}
			if bounded && w > deadline {
				w = deadline
			}
			p.bounds[pi] = w
			if w < wmin {
				wmin = w
			}
		}

		// Parallel section: partitions with work run concurrently. A
		// lone active partition runs inline on the coordinator — no
		// channel round-trip, no worker wakeup.
		if st != nil {
			st.serial.Add(time.Since(serialT0).Nanoseconds())
			st.resetWindow()
			st.noteWidth(wmin-tnext, p.look)
		}
		dispatched, lone := 0, -1
		for pi := range p.engs {
			if p.active[pi] {
				if dispatched == 0 {
					lone = pi
				}
				dispatched++
			}
		}
		if dispatched == 1 {
			p.execWindow(lone, p.bounds[lone])
		} else {
			if p.cmds == nil {
				p.startWorkers()
			}
			for pi := range p.engs {
				if p.active[pi] {
					p.cmds[pi] <- p.bounds[pi]
				}
			}
			for i := 0; i < dispatched; i++ {
				<-p.done
			}
		}
		if st != nil {
			st.noteWindow(p.active)
		}

		// Serial section: merge shards, repatriate pool releases, sample.
		if p.barrier != nil {
			p.barrier()
		}
		if p.sampleFn != nil && p.sampleNext <= wmin {
			for p.sampleNext <= wmin {
				p.sampleNext += p.sampleEvery
			}
			p.sampleFn(wmin)
		}
	}

	// Align every clock to the common end time. The jump is a
	// quiescence fast-forward: every sample boundary it crosses fires
	// its own call at its exact virtual time (mirrors the serial
	// engine's exact-wake probe semantics), so an idle tail — e.g.
	// doorbell receivers parked with no events pending — still produces
	// the full monitor sample train.
	target := p.Now()
	if bounded && deadline > target {
		target = deadline
	}
	for _, e := range p.engs {
		e.RunUntil(target)
	}
	if p.barrier != nil {
		p.barrier()
	}
	for p.sampleFn != nil && p.sampleNext <= target {
		at := p.sampleNext
		p.sampleNext += p.sampleEvery
		p.sampleFn(at)
	}
}

// startWorkers spawns one worker goroutine per partition.
func (p *Parallel) startWorkers() {
	n := len(p.engs)
	p.cmds = make([]chan Time, n)
	p.done = make(chan int, n)
	p.workers.Add(n)
	for i := range p.cmds {
		p.cmds[i] = make(chan Time, 1)
		go p.worker(i, p.cmds[i], p.done)
	}
}

// stopWorkers closes every command channel and waits for the workers to
// exit; the next multi-partition window respawns them.
func (p *Parallel) stopWorkers() {
	if p.cmds == nil {
		return
	}
	for _, c := range p.cmds {
		close(c)
	}
	p.workers.Wait()
	p.cmds, p.done = nil, nil
}

// worker executes window deadlines for one partition until its command
// channel closes at the end of the run. Draining the partition's queued
// mailboxes happens here, inside the window, so the coordinator's flip
// and the drain never overlap.
func (p *Parallel) worker(idx int, cmds chan Time, done chan int) {
	defer p.workers.Done()
	for w := range cmds {
		p.execWindow(idx, w)
		done <- idx
	}
}

// widthBucket maps a window width in picoseconds to its log2 histogram
// bucket (bucket k counts widths in [2^(k-1), 2^k), bucket 0 widths of
// zero).
func widthBucket(w Time) int {
	if w <= 0 {
		return 0
	}
	return bits.Len64(uint64(w))
}
