package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30*Nanosecond, func() { got = append(got, 3) })
	e.At(10*Nanosecond, func() { got = append(got, 1) })
	e.At(20*Nanosecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
	if e.Now() != 30*Nanosecond {
		t.Fatalf("Now() = %v, want 30ns", e.Now())
	}
}

func TestEngineTieBreaksBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*Nanosecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestEngineAfterIsRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(100*Nanosecond, func() {
		e.After(50*Nanosecond, func() { at = e.Now() })
	})
	e.Run()
	if at != 150*Nanosecond {
		t.Fatalf("After fired at %v, want 150ns", at)
	}
}

func TestEngineSchedulingIntoPastPanics(t *testing.T) {
	e := NewEngine()
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

func TestEngineRunUntilLeavesLaterEventsPending(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10*Nanosecond, func() { fired++ })
	e.At(20*Nanosecond, func() { fired++ })
	e.At(30*Nanosecond, func() { fired++ })
	e.RunUntil(20 * Nanosecond)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.Now() != 20*Nanosecond {
		t.Fatalf("Now() = %v, want 20ns", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
}

func TestEngineRunUntilAdvancesClockToDeadline(t *testing.T) {
	e := NewEngine()
	e.RunUntil(42 * Nanosecond)
	if e.Now() != 42*Nanosecond {
		t.Fatalf("Now() = %v, want 42ns", e.Now())
	}
}

func TestEngineHaltStopsRun(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10*Nanosecond, func() { fired++; e.Halt() })
	e.At(20*Nanosecond, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (Halt should stop the run)", fired)
	}
	e.Run() // resumes
	if fired != 2 {
		t.Fatalf("fired = %d after resume, want 2", fired)
	}
}

func TestEngineCascadedEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 1000 {
			e.After(1*Nanosecond, tick)
		}
	}
	e.After(0, tick)
	e.Run()
	if count != 1000 {
		t.Fatalf("count = %d, want 1000", count)
	}
	if e.Now() != 999*Nanosecond {
		t.Fatalf("Now() = %v, want 999ns", e.Now())
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{227 * Nanosecond, "227ns"},
		{1400 * Nanosecond, "1.4us"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
		{-500 * Picosecond, "-500ps"},
		{-5 * Nanosecond, "-5ns"},
		{-1400 * Nanosecond, "-1.4us"},
		{-3 * Millisecond, "-3ms"},
		{-2 * Second, "-2s"},
		{math.MinInt64, "-9223372036854775808ps"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestFromNanos(t *testing.T) {
	if got := FromNanos(227); got != 227*Nanosecond {
		t.Errorf("FromNanos(227) = %v", got)
	}
	if got := FromNanos(0.5); got != 500*Picosecond {
		t.Errorf("FromNanos(0.5) = %v", got)
	}
}

func TestServerFIFO(t *testing.T) {
	var s Server
	start, done := s.Schedule(0, 10*Nanosecond)
	if start != 0 || done != 10*Nanosecond {
		t.Fatalf("first job start=%v done=%v", start, done)
	}
	// Arrives while busy: queues behind the first job.
	start, done = s.Schedule(5*Nanosecond, 10*Nanosecond)
	if start != 10*Nanosecond || done != 20*Nanosecond {
		t.Fatalf("second job start=%v done=%v", start, done)
	}
	// Arrives after idle: starts immediately.
	start, done = s.Schedule(100*Nanosecond, 5*Nanosecond)
	if start != 100*Nanosecond || done != 105*Nanosecond {
		t.Fatalf("third job start=%v done=%v", start, done)
	}
	if s.Jobs() != 3 {
		t.Fatalf("Jobs() = %d, want 3", s.Jobs())
	}
	if s.BusyTime() != 25*Nanosecond {
		t.Fatalf("BusyTime() = %v, want 25ns", s.BusyTime())
	}
}

func TestServerUtilization(t *testing.T) {
	var s Server
	s.Schedule(0, 50*Nanosecond)
	if u := s.Utilization(100 * Nanosecond); u != 0.5 {
		t.Fatalf("Utilization = %v, want 0.5", u)
	}
	if u := s.Utilization(0); u != 0 {
		t.Fatalf("Utilization(0) = %v, want 0", u)
	}
}

// Property: for any job sequence, start >= arrival, done = start + service,
// and service intervals never overlap.
func TestServerNoOverlapProperty(t *testing.T) {
	f := func(arrivals []uint16, services []uint8) bool {
		var s Server
		n := len(arrivals)
		if len(services) < n {
			n = len(services)
		}
		var prevDone Time
		var arr Time
		for i := 0; i < n; i++ {
			arr += Time(arrivals[i]) // monotone non-decreasing arrivals
			svc := Time(services[i])
			start, done := s.Schedule(arr, svc)
			if start < arr {
				return false
			}
			if done != start+svc {
				return false
			}
			if start < prevDone {
				return false // overlap
			}
			prevDone = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	if NewRand(1).Uint64() == NewRand(2).Uint64() {
		t.Fatal("different seeds produced identical first values")
	}
}

func TestRandZeroSeedUsable(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of range", f)
		}
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	r := NewRand(11)
	p := r.Perm(64)
	seen := make([]bool, 64)
	for _, v := range p {
		if v < 0 || v >= 64 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRandJitterBounds(t *testing.T) {
	r := NewRand(13)
	base := 100 * Nanosecond
	for i := 0; i < 1000; i++ {
		j := r.Jitter(base, 0.1)
		if j < 90*Nanosecond || j > 110*Nanosecond {
			t.Fatalf("Jitter out of bounds: %v", j)
		}
	}
	if r.Jitter(base, 0) != base {
		t.Fatal("zero-fraction jitter must be identity")
	}
}

// Property: any batch of randomly-timed events executes in
// non-decreasing time order, with scheduling order breaking ties.
func TestEventOrderingProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		type fired struct {
			at  Time
			seq int
		}
		var log []fired
		for i, d := range delays {
			i, at := i, Time(d)*Nanosecond
			e.At(at, func() { log = append(log, fired{at: at, seq: i}) })
		}
		e.Run()
		if len(log) != len(delays) {
			return false
		}
		for i := 1; i < len(log); i++ {
			if log[i].at < log[i-1].at {
				return false
			}
			if log[i].at == log[i-1].at && log[i].seq < log[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// loop wraps engines in the run loop that owns the sample hook: one
// engine is the serial case, more are partitions with no mail between
// them.
func loop(t *testing.T, engs ...*Engine) *Parallel {
	t.Helper()
	p, err := NewParallel(engs, make([][]*Mailbox, len(engs)), Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The sample hook is the run loop's clock probe: it fires at each exact
// boundary, before any event at or past it.
func TestEngineProbeWakeSemantics(t *testing.T) {
	e := NewEngine()
	p := loop(t, e)
	var wakes []Time
	// Every 100ns: events at 40, 80 must not wake the hook; before the
	// 120 event fires the 100 boundary fires exactly at 100; 130 is
	// inside the next period; before 250 fires the 200 boundary fires
	// exactly at 200; nothing is left to run past 250, so no 300.
	p.SetSampleHook(100*Nanosecond, func(now Time) {
		if e.Now() != now {
			t.Errorf("hook at %v saw the clock at %v", now, e.Now())
		}
		wakes = append(wakes, now)
	})
	for _, at := range []Time{40, 80, 120, 130, 250} {
		e.At(at*Nanosecond, func() {})
	}
	p.Run()
	want := []Time{100 * Nanosecond, 200 * Nanosecond}
	if len(wakes) != len(want) || wakes[0] != want[0] || wakes[1] != want[1] {
		t.Fatalf("sample wakes = %v, want %v", wakes, want)
	}
}

// A hook that uninstalls itself fires once.
func TestEngineProbeDisarmsOnStaleWake(t *testing.T) {
	e := NewEngine()
	p := loop(t, e)
	calls := 0
	p.SetSampleHook(10*Nanosecond, func(Time) {
		calls++
		p.SetSampleHook(0, nil)
	})
	e.At(20*Nanosecond, func() {})
	e.At(30*Nanosecond, func() {})
	p.Run()
	if calls != 1 {
		t.Fatalf("uninstalled hook fired %d times, want 1", calls)
	}
}

// ---- Quiescence fast-forward edge cases --------------------------------

// A monitor sampling across a multi-millisecond idle gap must see every
// boundary at its exact virtual time when RunUntil crosses the whole gap
// in one quiescence fast-forward.
func TestRunUntilFastForwardFiresEveryProbeBoundary(t *testing.T) {
	e := NewEngine()
	p := loop(t, e)
	var wakes []Time
	period := 10 * Microsecond
	p.SetSampleHook(period, func(now Time) { wakes = append(wakes, now) })
	p.RunUntil(8 * Millisecond) // empty queue: pure fast-forward
	if len(wakes) != 800 {
		t.Fatalf("fast-forward fired %d samples, want 800", len(wakes))
	}
	for i, w := range wakes {
		if want := Time(i+1) * period; w != want {
			t.Fatalf("sample %d at %v, want %v", i, w, want)
		}
	}
	if e.Now() != 8*Millisecond {
		t.Fatalf("clock parked at %v, want the 8ms deadline", e.Now())
	}
}

// A watchdog sample that schedules the timeout event it guards must see
// that event execute mid-jump at its own virtual instant, not get
// dragged to the deadline.
func TestRunUntilProbeScheduledEventsRunDuringJump(t *testing.T) {
	e := NewEngine()
	p := loop(t, e)
	var probeAt, eventAt Time
	p.SetSampleHook(5*Microsecond, func(now Time) {
		probeAt = now
		e.After(7*Microsecond, func() { eventAt = e.Now() })
		p.SetSampleHook(0, nil) // one-shot
	})
	p.RunUntil(1 * Millisecond)
	if probeAt != 5*Microsecond {
		t.Fatalf("watchdog woke at %v, want 5us", probeAt)
	}
	if eventAt != 12*Microsecond {
		t.Fatalf("watchdog-scheduled event ran at %v, want 12us", eventAt)
	}
	if e.Now() != 1*Millisecond {
		t.Fatalf("clock parked at %v, want the deadline", e.Now())
	}
}

// An event a sample schedules beyond the deadline stays pending: the
// fast-forward stops at the deadline, never over-runs it.
func TestRunUntilProbeEventBeyondDeadlineStaysPending(t *testing.T) {
	e := NewEngine()
	p := loop(t, e)
	ran := false
	p.SetSampleHook(5*Microsecond, func(Time) {
		e.After(50*Microsecond, func() { ran = true })
		p.SetSampleHook(0, nil)
	})
	p.RunUntil(10 * Microsecond)
	if ran {
		t.Fatal("event past the deadline ran during the jump")
	}
	if e.Now() != 10*Microsecond {
		t.Fatalf("clock at %v, want the 10us deadline", e.Now())
	}
	p.Run()
	if !ran {
		t.Fatal("pending event was lost by the fast-forward")
	}
	if e.Now() != 55*Microsecond {
		t.Fatalf("event executed at %v, want 55us", e.Now())
	}
}

// An action cut parks the clock with AlignTo: sample boundaries the jump
// crosses fire at their exact times first, the action sees the clock on
// its own time, and the hook stays installed for the boundary past it.
func TestAlignToFiresCrossedProbeWakesExactly(t *testing.T) {
	for _, n := range []int{1, 2} {
		engs := make([]*Engine, n)
		for i := range engs {
			engs[i] = NewEngine()
		}
		p := loop(t, engs...)
		var wakes []Time
		p.SetSampleHook(20*Microsecond, func(now Time) { wakes = append(wakes, now) })
		actAt, firedAt := 70*Microsecond, Time(-1)
		p.SetActionHook(func() (Time, bool) { return actAt, firedAt < 0 },
			func(now Time) { firedAt = p.Now() })
		p.Run() // the pending action is the only work
		if len(wakes) != 3 || wakes[0] != 20*Microsecond || wakes[1] != 40*Microsecond || wakes[2] != 60*Microsecond {
			t.Fatalf("%d engines: action jump fired samples %v, want exactly 20us/40us/60us", n, wakes)
		}
		if firedAt != actAt || p.Now() != actAt {
			t.Fatalf("%d engines: action saw the clock at %v, run ended at %v, want 70us", n, firedAt, p.Now())
		}
		p.RunUntil(90 * Microsecond)
		if len(wakes) != 4 || wakes[3] != 80*Microsecond {
			t.Fatalf("%d engines: post-action samples %v, want a fourth at 80us", n, wakes)
		}
	}
}

// A sample that schedules an event before a later align point defeats
// the alignment; AlignTo must refuse loudly rather than skip the event.
func TestAlignToPanicsWhenProbeSchedulesEarlierEvent(t *testing.T) {
	e := NewEngine()
	p := loop(t, e)
	p.SetSampleHook(10*Microsecond, func(Time) {
		e.After(Nanosecond, func() {})
		p.SetSampleHook(0, nil)
	})
	p.RunUntil(10 * Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("AlignTo skipped a pending event without panicking")
		}
	}()
	e.AlignTo(50 * Microsecond)
}
