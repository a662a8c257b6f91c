package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// relay bounces a token between two partitions through mailboxes,
// recording the virtual time of every hop. delta stands in for the link
// latency and must be >= the executor's lookahead for causal delivery.
type relay struct {
	out   *Mailbox
	peer  *relay
	delta Time
	hops  []Time
}

func (r *relay) OnEvent(e *Engine, arg EventArg) {
	r.hops = append(r.hops, e.Now())
	if arg.I > 0 {
		r.out.Post(e, e.Now()+r.delta, r.peer, EventArg{I: arg.I - 1})
	}
}

// serialRelay is the single-engine reference for the same bounce chain.
type serialRelay struct {
	peer  *serialRelay
	delta Time
	hops  []Time
}

func (r *serialRelay) OnEvent(e *Engine, arg EventArg) {
	r.hops = append(r.hops, e.Now())
	if arg.I > 0 {
		e.ScheduleAfter(r.delta, r.peer, EventArg{I: arg.I - 1})
	}
}

func TestParallelMatchesSerialRelay(t *testing.T) {
	const (
		look  = 10 * Nanosecond
		delta = 13 * Nanosecond // deliberately not a multiple of look
		n     = 40
	)

	// Serial reference.
	se := NewEngine()
	sa := &serialRelay{delta: delta}
	sb := &serialRelay{delta: delta, peer: sa}
	sa.peer = sb
	se.Schedule(5*Nanosecond, sa, EventArg{I: n})
	se.Run()

	// Two partitions, one mailbox each way.
	ea, eb := NewEngine(), NewEngine()
	toA, toB := &Mailbox{}, &Mailbox{}
	ra := &relay{out: toB, delta: delta}
	rb := &relay{out: toA, delta: delta, peer: ra}
	ra.peer = rb
	ea.Schedule(5*Nanosecond, ra, EventArg{I: n})
	p, err := NewParallel([]*Engine{ea, eb}, [][]*Mailbox{{toA}, {toB}}, look)
	if err != nil {
		t.Fatal(err)
	}
	p.Run()

	if got, want := len(ra.hops)+len(rb.hops), n+1; got != want {
		t.Fatalf("parallel fired %d hops, want %d", got, want)
	}
	for i, at := range sa.hops {
		if i >= len(ra.hops) || ra.hops[i] != at {
			t.Fatalf("partition A hop %d diverged from serial", i)
		}
	}
	for i, at := range sb.hops {
		if i >= len(rb.hops) || rb.hops[i] != at {
			t.Fatalf("partition B hop %d diverged from serial", i)
		}
	}
	if p.Now() != se.Now() {
		t.Fatalf("final time diverged: parallel %v, serial %v", p.Now(), se.Now())
	}
	if ea.Now() != eb.Now() {
		t.Fatalf("partition clocks unaligned after Run: %v vs %v", ea.Now(), eb.Now())
	}
	if p.Fired() != se.Fired() {
		t.Fatalf("fired diverged: parallel %d, serial %d", p.Fired(), se.Fired())
	}
}

// peakRelay is a relay that also records the most goroutines alive
// while it fired, proving the run dispatched windows to workers.
type peakRelay struct {
	relay
	peak int
}

func (r *peakRelay) OnEvent(e *Engine, arg EventArg) {
	if g := runtime.NumGoroutine(); g > r.peak {
		r.peak = g
	}
	r.relay.OnEvent(e, arg)
}

// The worker goroutines live only while a run executes: once Run
// returns none remain, so a finished executor (and the cluster behind
// it) holds no goroutines and can be collected. The next run respawns
// them lazily.
func TestParallelWorkersStopAfterRun(t *testing.T) {
	const (
		look  = 10 * Nanosecond
		delta = 13 * Nanosecond
	)
	base := runtime.NumGoroutine()
	ea, eb := NewEngine(), NewEngine()
	toA, toB := &Mailbox{}, &Mailbox{}
	ra := &peakRelay{relay: relay{out: toB, delta: delta}}
	rb := &peakRelay{relay: relay{out: toA, delta: delta}}
	ra.peer, rb.peer = &rb.relay, &ra.relay
	p, err := NewParallel([]*Engine{ea, eb}, [][]*Mailbox{{toA}, {toB}}, look)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		// A token starts on each side, so both partitions hold work in
		// the same window and the coordinator must dispatch to workers.
		ra.peak, rb.peak = 0, 0
		ea.Schedule(p.Now()+5*Nanosecond, ra, EventArg{I: 8})
		eb.Schedule(p.Now()+5*Nanosecond, rb, EventArg{I: 8})
		p.Run()
		if ra.peak <= base && rb.peak <= base {
			t.Fatalf("round %d: no worker goroutine ran (peak %d, baseline %d)", round, max(ra.peak, rb.peak), base)
		}
		// Run waits for every worker to finish, but an exiting goroutine
		// still counts until the runtime reaps it: allow it a moment.
		got := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); got != base && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			got = runtime.NumGoroutine()
		}
		if got != base {
			t.Fatalf("round %d: %d goroutines after Run, baseline %d", round, got, base)
		}
	}
}

func TestParallelRunForAlignsClocks(t *testing.T) {
	ea, eb := NewEngine(), NewEngine()
	fired := 0
	ea.At(3*Nanosecond, func() { fired++ })
	p, err := NewParallel([]*Engine{ea, eb}, [][]*Mailbox{nil, nil}, 5*Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	p.RunFor(100 * Nanosecond)
	if fired != 1 {
		t.Fatalf("event did not fire")
	}
	if ea.Now() != 100*Nanosecond || eb.Now() != 100*Nanosecond {
		t.Fatalf("clocks not aligned to deadline: %v / %v", ea.Now(), eb.Now())
	}
	// Second RunFor starts from the aligned clock.
	p.RunFor(50 * Nanosecond)
	if p.Now() != 150*Nanosecond {
		t.Fatalf("Now after second RunFor = %v, want 150ns", p.Now())
	}
}

func TestParallelRejectsZeroLookahead(t *testing.T) {
	e := NewEngine()
	for _, look := range []Time{0, -Nanosecond} {
		_, err := NewParallel([]*Engine{e}, [][]*Mailbox{nil}, look)
		if err == nil {
			t.Fatalf("lookahead %v accepted; a non-positive window livelocks", look)
		}
		if !strings.Contains(err.Error(), "lookahead") {
			t.Fatalf("error %q does not explain the lookahead constraint", err)
		}
	}
}

// Samples land exactly on the boundaries, an event exactly on a
// boundary runs after that sample, and the run stops sampling once the
// events drain — on one engine and on two.
func TestParallelSampleHook(t *testing.T) {
	for _, n := range []int{1, 2} {
		engs := make([]*Engine, n)
		for i := range engs {
			engs[i] = NewEngine()
		}
		for i, at := range []Time{1, 2, 3, 10, 11} {
			engs[i%n].At(at*Microsecond, func() {})
		}
		p := loop(t, engs...)
		var samples []Time
		var fired []uint64
		p.SetSampleHook(3*Microsecond, func(now Time) {
			samples = append(samples, now)
			fired = append(fired, p.Fired())
		})
		p.Run()
		want := []Time{3 * Microsecond, 6 * Microsecond, 9 * Microsecond}
		wantFired := []uint64{2, 3, 3}
		if len(samples) != len(want) {
			t.Fatalf("%d engines: samples at %v, want %v", n, samples, want)
		}
		for i := range want {
			if samples[i] != want[i] || fired[i] != wantFired[i] {
				t.Fatalf("%d engines: samples at %v with %v events fired, want %v with %v",
					n, samples, fired, want, wantFired)
			}
		}
		if p.Now() != 11*Microsecond || p.Fired() != 5 {
			t.Fatalf("%d engines: run ended at %v after %d events, want 11us after 5", n, p.Now(), p.Fired())
		}
	}
}

// A sample and an action on the same instant form one cut: the sample
// fires first, then the action, both before the events at that instant.
func TestCutFiresSampleBeforeAction(t *testing.T) {
	for _, n := range []int{1, 2} {
		engs := make([]*Engine, n)
		for i := range engs {
			engs[i] = NewEngine()
		}
		var cuts []string // coordinator only
		acted := false
		sawAction := make([]bool, n) // one slot per engine
		for i := range engs {
			engs[i].At(6*Microsecond, func() { sawAction[i] = acted })
		}
		p := loop(t, engs...)
		p.SetSampleHook(3*Microsecond, func(now Time) { cuts = append(cuts, "sample@"+now.String()) })
		p.SetActionHook(func() (Time, bool) { return 6 * Microsecond, !acted },
			func(now Time) { acted = true; cuts = append(cuts, "action@"+now.String()) })
		p.Run()
		if got, want := strings.Join(cuts, " "), "sample@3us sample@6us action@6us"; got != want {
			t.Fatalf("%d engines: cut order %q, want %q", n, got, want)
		}
		for i, ok := range sawAction {
			if !ok {
				t.Fatalf("%d engines: engine %d's event at the cut ran before the action", n, i)
			}
		}
	}
}

func TestParallelBarrierHookRuns(t *testing.T) {
	ea := NewEngine()
	done := 0
	ea.At(Nanosecond, func() { done++ })
	ea.At(20*Nanosecond, func() { done++ })
	p, err := NewParallel([]*Engine{ea}, [][]*Mailbox{nil}, 2*Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	barriers := 0
	p.SetBarrierHook(func() { barriers++ })
	p.Run()
	if done != 2 {
		t.Fatalf("events lost")
	}
	if barriers < 2 {
		t.Fatalf("barrier hook ran %d times, want one per window (>=2)", barriers)
	}
}

func TestWarpTo(t *testing.T) {
	e := NewEngine()
	e.WarpTo(42 * Nanosecond)
	if e.Now() != 42*Nanosecond {
		t.Fatalf("WarpTo did not move the clock")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("WarpTo with pending events must panic")
		}
	}()
	e.At(50*Nanosecond, func() {})
	e.WarpTo(60 * Nanosecond)
}

// postOnce records its firing times and, the first time it runs with a
// non-nil out, posts a single cross-partition event.
type postOnce struct {
	hops  []Time
	out   *Mailbox
	peer  Handler
	delta Time
}

func (h *postOnce) OnEvent(e *Engine, _ EventArg) {
	h.hops = append(h.hops, e.Now())
	if h.out != nil {
		h.out.Post(e, e.Now()+h.delta, h.peer, EventArg{})
		h.out = nil
	}
}

// TestParallelSnapBackExactDelivery is the adaptive-widening safety
// gate: with one partition idle, the busy partition's windows widen far
// past the lookahead (fast-forward), yet a cross-partition post made in
// the middle of such a widened window must still be delivered and
// executed at its exact virtual timestamp — the idle consumer's clock
// stays parked until the mail arrives, and the producer's own window
// snaps back to post time + 2·lookahead.
func TestParallelSnapBackExactDelivery(t *testing.T) {
	const (
		look  = 10 * Nanosecond
		delta = 13 * Nanosecond
		postT = 5 * Microsecond
	)
	ea, eb := NewEngine(), NewEngine()
	toB := &Mailbox{From: 0, To: 1}
	rec := &postOnce{}
	poster := &postOnce{out: toB, peer: rec, delta: delta}
	// A long train of partition-A-local work around the post instant,
	// so the post lands mid-fast-forward, not at a window edge.
	filler := &postOnce{}
	for i := 1; i <= 2000; i++ {
		ea.Schedule(Time(i)*3*Nanosecond, filler, EventArg{})
	}
	ea.Schedule(postT, poster, EventArg{})
	p, err := NewParallel([]*Engine{ea, eb}, [][]*Mailbox{nil, {toB}}, look)
	if err != nil {
		t.Fatal(err)
	}
	st := NewParallelStats(2)
	p.SetStats(st)
	p.Run()

	if len(rec.hops) != 1 || rec.hops[0] != postT+delta {
		t.Fatalf("cross-partition event fired at %v, want exactly %v", rec.hops, postT+delta)
	}
	if len(filler.hops) != 2000 {
		t.Fatalf("filler fired %d of 2000 events", len(filler.hops))
	}
	if ea.Now() != eb.Now() {
		t.Fatalf("clocks unaligned after Run: %v vs %v", ea.Now(), eb.Now())
	}
	// The widening actually happened: with B idle, A's windows blow past
	// 2x lookahead instead of draining 10ns at a time...
	if st.wideWindows.Load() == 0 {
		t.Fatalf("no window widened past 2x lookahead; fast-forward lever inactive")
	}
	// ...and the dirty set flipped exactly the one posted mailbox over
	// the whole run, not one flip per mailbox per window.
	if got := st.dirtyFlips.Load(); got != 1 {
		t.Fatalf("dirty mailbox flips = %d, want exactly 1", got)
	}
}

// TestParallelMixedLatencyChain runs two independent bounce pairs over
// a three-partition line with very different cross-partition latencies
// (A-B fast, B-C slow) and checks the result against a single serial
// engine: windows sized by the fast pair's global lookahead, with the
// minimum-holder running ahead to the second horizon, must change
// scheduling, never outcomes.
func TestParallelMixedLatencyChain(t *testing.T) {
	const (
		lookAB = 10 * Nanosecond
		dAB    = 13 * Nanosecond
		dBC    = 120 * Nanosecond
		nAB    = 30
		nBC    = 10
	)

	// Serial reference: both bounces interleaved on one engine.
	se := NewEngine()
	sa := &serialRelay{delta: dAB}
	sb := &serialRelay{delta: dAB, peer: sa}
	sa.peer = sb
	sb2 := &serialRelay{delta: dBC}
	sc := &serialRelay{delta: dBC, peer: sb2}
	sb2.peer = sc
	se.Schedule(5*Nanosecond, sa, EventArg{I: nAB})
	se.Schedule(7*Nanosecond, sb2, EventArg{I: nBC})
	se.Run()

	ea, eb, ec := NewEngine(), NewEngine(), NewEngine()
	toA := &Mailbox{From: 1, To: 0}
	toB := &Mailbox{From: 0, To: 1}
	toB2 := &Mailbox{From: 2, To: 1}
	toC := &Mailbox{From: 1, To: 2}
	ra := &relay{out: toB, delta: dAB}
	rb := &relay{out: toA, delta: dAB, peer: ra}
	ra.peer = rb
	rb2 := &relay{out: toC, delta: dBC}
	rc := &relay{out: toB2, delta: dBC, peer: rb2}
	rb2.peer = rc
	ea.Schedule(5*Nanosecond, ra, EventArg{I: nAB})
	eb.Schedule(7*Nanosecond, rb2, EventArg{I: nBC})
	p, err := NewParallel(
		[]*Engine{ea, eb, ec},
		[][]*Mailbox{{toA}, {toB, toB2}, {toC}},
		lookAB,
	)
	if err != nil {
		t.Fatal(err)
	}
	p.Run()

	for name, pair := range map[string][2][]Time{
		"A":      {sa.hops, ra.hops},
		"B-fast": {sb.hops, rb.hops},
		"B-slow": {sb2.hops, rb2.hops},
		"C":      {sc.hops, rc.hops},
	} {
		want, got := pair[0], pair[1]
		if len(got) != len(want) {
			t.Fatalf("%s fired %d hops, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s hop %d at %v, serial at %v", name, i, got[i], want[i])
			}
		}
	}
	if p.Fired() != se.Fired() {
		t.Fatalf("fired diverged: parallel %d, serial %d", p.Fired(), se.Fired())
	}
	if p.Now() != se.Now() {
		t.Fatalf("final time diverged: parallel %v, serial %v", p.Now(), se.Now())
	}
}
