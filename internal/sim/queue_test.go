package sim

import (
	"testing"
	"testing/quick"
)

// recorder logs (time, tag) pairs as events fire; used to compare the
// ladder queue against the legacy heap event-for-event.
type recorder struct {
	log []firedAt
}

type firedAt struct {
	at  Time
	tag int64
}

func (r *recorder) OnEvent(e *Engine, arg EventArg) {
	r.log = append(r.log, firedAt{at: e.Now(), tag: arg.I})
}

func sameLog(a, b []firedAt) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Property: for any batch of scheduled events, the ladder queue fires
// them in exactly the same order as the seed container/heap queue.
func TestLadderMatchesLegacyOrderingProperty(t *testing.T) {
	f := func(delays []uint32) bool {
		newE, oldE := NewEngine(), NewLegacyEngine()
		newR, oldR := &recorder{}, &recorder{}
		for i, d := range delays {
			// Spread delays across bucket widths and past the near
			// window so the far heap and refill paths get exercised.
			at := Time(d) * Picosecond
			newE.Schedule(at, newR, EventArg{I: int64(i)})
			oldE.Schedule(at, oldR, EventArg{I: int64(i)})
		}
		newE.Run()
		oldE.Run()
		return sameLog(newR.log, oldR.log) &&
			newE.Now() == oldE.Now() &&
			newE.Fired() == oldE.Fired()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// scripted is a randomized event script that both queues run from the
// same seed. Every fired event may schedule children of each shape the
// near rung has a path for: same-instant follow-ups (ties broken by
// inherited priority), mailbox-style keyed events whose stamp is earlier
// than now, near events a bucket or a few apart, far events past the
// near window (so the window refills from the far heap), and bursts of
// more than 32 and more than 256 events at one instant. Both engines
// draw from their own Rand, so the draws stay in step exactly as long as
// the firing orders agree.
type scripted struct {
	r      *Rand
	log    []firedAt
	tags   int64
	budget int
}

func (s *scripted) tag() EventArg {
	s.tags++
	return EventArg{I: s.tags}
}

func (s *scripted) OnEvent(e *Engine, arg EventArg) {
	s.log = append(s.log, firedAt{at: e.Now(), tag: arg.I})
	for n := s.r.Intn(3); n > 0 && s.budget > 0; n-- {
		s.budget--
		s.child(e)
	}
}

func (s *scripted) child(e *Engine) {
	now := e.Now()
	switch s.r.Intn(12) {
	case 0, 1: // same instant: ties with siblings and cousins
		e.Schedule(now, s, s.tag())
	case 2: // mailbox: a stamp from the sender's past, a foreign lineage
		sat := max(0, now-Time(s.r.Intn(3000)))
		e.scheduleKeyed(now+Time(s.r.Intn(600)), sat, uint64(s.r.Intn(64)), s, s.tag())
	case 3: // past the near window
		e.Schedule(now+Microsecond+Time(s.r.Intn(4000))*Nanosecond, s, s.tag())
	case 4: // a burst at one instant, usually over 32, rarely over 256
		if s.r.Intn(8) == 0 {
			k := 33 + s.r.Intn(20)
			if s.r.Intn(4) == 0 {
				k = 257 + s.r.Intn(40)
			}
			at := now + Time(s.r.Intn(3))*100*Picosecond
			for ; k > 0; k-- {
				e.Schedule(at, s, s.tag())
			}
		}
	default: // near: within a few buckets
		e.Schedule(now+Time(s.r.Intn(1500)), s, s.tag())
	}
}

// runScript drives e through one script: same-instant root bursts of
// 300 and 40 events, then bounded runs. Each RunUntil leaves the cursor
// positioned on the next pending bucket, beyond the clock, so the root
// events scheduled at Now() between runs clamp into an already sorted
// run.
func runScript(e *Engine, seed uint64) *scripted {
	s := &scripted{r: NewRand(seed), budget: 2500}
	for i := 0; i < 300; i++ {
		e.Schedule(5*Nanosecond, s, s.tag())
	}
	for i := 0; i < 40; i++ {
		e.Schedule(5*Nanosecond+64*Picosecond, s, s.tag())
	}
	for e.Pending() > 0 {
		e.RunUntil(e.Now() + Time(s.r.Intn(3000)))
		if s.r.Intn(3) == 0 {
			e.Schedule(e.Now(), s, s.tag())
			e.Schedule(e.Now()+Time(s.r.Intn(200)), s, s.tag())
		}
	}
	return s
}

// Property: under every scheduling shape the near rung distinguishes,
// the ladder fires events in exactly the legacy heap's order.
func TestLadderMatchesLegacyScriptedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		newE, oldE := NewEngine(), NewLegacyEngine()
		got, want := runScript(newE, seed), runScript(oldE, seed)
		return len(want.log) > 340 &&
			sameLog(got.log, want.log) &&
			newE.Now() == oldE.Now() &&
			newE.Fired() == oldE.Fired()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// chainTicker reschedules itself with a pseudo-random gap until its
// budget runs out, and occasionally spawns a sibling — a workload shaped
// like the simulator's own traffic (mostly near-future events with the
// odd far-future retrain), run identically on both queues.
type chainTicker struct {
	e      *Engine
	r      *Rand
	rec    *recorder
	budget int
	id     int64
}

func (c *chainTicker) OnEvent(e *Engine, arg EventArg) {
	c.rec.log = append(c.rec.log, firedAt{at: e.Now(), tag: c.id<<32 | arg.I})
	if c.budget <= 0 {
		return
	}
	c.budget--
	gap := Time(c.r.Intn(2000)) * Picosecond
	if c.r.Intn(50) == 0 {
		gap += 3 * Microsecond // jump past the near window
	}
	e.ScheduleAfter(gap, c, EventArg{I: arg.I + 1})
	if c.r.Intn(20) == 0 && c.budget > 0 {
		c.budget--
		sib := &chainTicker{e: e, r: c.r, rec: c.rec, budget: 0, id: c.id + 1000}
		e.ScheduleAfter(gap/2, sib, EventArg{})
	}
}

func runChainWorkload(e *Engine) *recorder {
	rec := &recorder{}
	r := NewRand(1234)
	for i := 0; i < 8; i++ {
		tk := &chainTicker{e: e, r: r, rec: rec, budget: 500, id: int64(i)}
		e.Schedule(Time(i)*Nanosecond, tk, EventArg{})
	}
	e.Run()
	return rec
}

func TestLadderMatchesLegacyOnChainedWorkload(t *testing.T) {
	newR := runChainWorkload(NewEngine())
	oldR := runChainWorkload(NewLegacyEngine())
	if len(newR.log) == 0 {
		t.Fatal("workload fired no events")
	}
	if !sameLog(newR.log, oldR.log) {
		t.Fatalf("ladder and legacy queues diverged: %d vs %d events",
			len(newR.log), len(oldR.log))
	}
}

// The ladder must re-anchor its window when the queue drains and the
// next event lands far in the future.
func TestLadderReanchorsAfterDrain(t *testing.T) {
	e := NewEngine()
	var got []Time
	fn := func() { got = append(got, e.Now()) }
	e.At(10*Nanosecond, fn)
	e.Run()
	e.At(5*Second, fn) // far beyond any near window from t=10ns
	e.At(5*Second+100*Picosecond, fn)
	e.Run()
	want := []Time{10 * Nanosecond, 5 * Second, 5*Second + 100*Picosecond}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// Events scheduled for "now" after the cursor has advanced past their
// bucket boundary must still fire before everything later.
func TestLadderSchedulesAtNowAfterCursorAdvance(t *testing.T) {
	e := NewEngine()
	var got []int
	// First event fires mid-window, then schedules a same-time follow-up
	// and a slightly later one; a far event is already pending.
	e.At(700*Picosecond, func() {
		e.At(e.Now(), func() { got = append(got, 1) })
		e.At(e.Now()+1*Picosecond, func() { got = append(got, 2) })
	})
	e.At(10*Microsecond, func() { got = append(got, 3) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", got)
	}
}

func TestTypedScheduleDeliversArg(t *testing.T) {
	e := NewEngine()
	rec := &recorder{}
	type payload struct{ v int }
	p := &payload{v: 7}
	var gotPtr any
	e.Schedule(5*Nanosecond, handlerFunc(func(eng *Engine, arg EventArg) {
		gotPtr = arg.Ptr
		rec.log = append(rec.log, firedAt{at: eng.Now(), tag: arg.I})
	}), EventArg{Ptr: p, I: 42})
	e.Run()
	if len(rec.log) != 1 || rec.log[0].at != 5*Nanosecond || rec.log[0].tag != 42 {
		t.Fatalf("typed event log = %v", rec.log)
	}
	if gotPtr != p {
		t.Fatalf("arg.Ptr = %v, want %v", gotPtr, p)
	}
}

// handlerFunc lets tests write inline handlers.
type handlerFunc func(e *Engine, arg EventArg)

func (f handlerFunc) OnEvent(e *Engine, arg EventArg) { f(e, arg) }

func TestScheduleAfterNegativePanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative ScheduleAfter did not panic")
		}
	}()
	e.ScheduleAfter(-1, handlerFunc(func(*Engine, EventArg) {}), EventArg{})
}

func TestLegacyEngineSchedulingIntoPastPanics(t *testing.T) {
	e := NewLegacyEngine()
	e.At(10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		e.At(5*Nanosecond, func() {})
	})
	e.Run()
}

// A sample boundary between the last event and the RunUntil deadline
// must fire on the final clock jump — at its exact time, not at the
// deadline the fast-forward lands on — on either queue.
func TestRunUntilFiresProbeOnFinalClockJump(t *testing.T) {
	for _, mk := range []func() *Engine{NewEngine, NewLegacyEngine} {
		e := mk()
		p := loop(t, e)
		e.At(10*Nanosecond, func() {})
		var wakes []Time
		p.SetSampleHook(100*Nanosecond, func(now Time) { wakes = append(wakes, now) })
		p.RunUntil(150 * Nanosecond)
		// The 10ns event is before the 100ns boundary; the jump to the
		// 150ns deadline crosses the boundary, which fires exactly at
		// 100ns.
		if len(wakes) != 1 || wakes[0] != 100*Nanosecond {
			t.Fatalf("samples after first RunUntil = %v, want [100ns]", wakes)
		}
		if e.Now() != 150*Nanosecond {
			t.Fatalf("Now() = %v, want 150ns", e.Now())
		}
		// An event-free run to 250ns fires the 200ns boundary on the
		// deadline jump.
		p.RunUntil(250 * Nanosecond)
		if len(wakes) != 2 || wakes[1] != 200*Nanosecond {
			t.Fatalf("samples after second RunUntil = %v, want [100ns 200ns]", wakes)
		}
		if e.Now() != 250*Nanosecond {
			t.Fatalf("Now() = %v, want 250ns", e.Now())
		}
	}
}

func TestRunUntilProbeDisarmOnFinalJump(t *testing.T) {
	e := NewEngine()
	p := loop(t, e)
	calls := 0
	p.SetSampleHook(50*Nanosecond, func(Time) {
		calls++
		p.SetSampleHook(0, nil)
	})
	p.RunUntil(100 * Nanosecond)
	p.RunUntil(300 * Nanosecond)
	if calls != 1 {
		t.Fatalf("uninstalled hook fired %d times, want 1", calls)
	}
}
