package sim

import "testing"

// ticker reschedules itself forever; the canonical steady-state
// workload: every Step frees one arena slot and Schedule immediately
// reuses it.
type ticker struct {
	period Time
}

func (tk *ticker) OnEvent(e *Engine, arg EventArg) {
	e.ScheduleAfter(tk.period, tk, arg)
}

// startTickers launches k self-rescheduling tickers with staggered
// periods and steps the engine until arena, buckets and far heap have
// reached their steady-state capacity.
func startTickers(e *Engine, k int) {
	for i := 0; i < k; i++ {
		tk := &ticker{period: Time(300+i*37) * Picosecond}
		e.Schedule(Time(i)*Picosecond, tk, EventArg{I: int64(i)})
	}
	for i := 0; i < 50_000; i++ {
		e.Step()
	}
}

// Satellite regression: the Schedule+Step cycle must not allocate in
// steady state — this is the contract the ladder queue exists for.
func TestScheduleStepZeroAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := NewEngine()
	startTickers(e, 64)
	allocs := testing.AllocsPerRun(500, func() {
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocated %.1f allocs/op, want 0", allocs)
	}
}

// The closure-based At entry point must stay as cheap as Schedule: a
// non-capturing func converts to Handler without allocating.
func TestAtStepZeroAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 4096; i++ {
		e.At(e.Now()+Time(i%1700)*Picosecond, fn)
		e.Step()
	}
	allocs := testing.AllocsPerRun(500, func() {
		e.At(e.Now()+700*Picosecond, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state At+Step allocated %.1f allocs/op, want 0", allocs)
	}
}

// The legacy queue is expected to allocate (interface{} boxing on every
// push/pop); this test documents the contrast rather than pinning an
// exact count.
func TestLegacyQueueAllocatesPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := NewLegacyEngine()
	startTickers(e, 64)
	allocs := testing.AllocsPerRun(500, func() {
		e.Step()
	})
	if allocs == 0 {
		t.Fatal("legacy heap reported 0 allocs/op; baseline comparison is meaningless")
	}
}

func benchSelfClock(b *testing.B, e *Engine) {
	b.ReportAllocs()
	startTickers(e, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkLadderSelfClock(b *testing.B) { benchSelfClock(b, NewEngine()) }
func BenchmarkLegacySelfClock(b *testing.B) { benchSelfClock(b, NewLegacyEngine()) }

// BenchmarkLadderBurst drains the torus's bucket shape: 512 tickers with
// one shared period fire in lockstep, so every instant is a single
// bucket of 512 same-time events.
func BenchmarkLadderBurst(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	tk := &ticker{period: 10 * Nanosecond}
	for i := 0; i < 512; i++ {
		e.Schedule(0, tk, EventArg{I: int64(i)})
	}
	for i := 0; i < 50_000; i++ {
		e.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
