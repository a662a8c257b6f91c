package cpu

import (
	"bytes"
	"testing"
)

// ucAddr is inside node0's UC receive window in the test rig.
const ucAddr = 0x8000

// loadAllocs runs one load per op through the whole local read path —
// northbridge, memory controller and the core's load records — after a
// warm-up that fills every pool, and returns the allocations per op.
func loadAllocs(t *testing.T, r *rig, load func(cb func([]byte, error))) float64 {
	t.Helper()
	want := pattern(256)
	mustNil(t, r.nbA.MemController().Memory().Write(ucAddr, want))
	ok := true
	cb := func(d []byte, err error) {
		if err != nil || !bytes.Equal(d, want[:len(d)]) {
			ok = false
		}
	}
	op := func() {
		load(cb)
		r.eng.Run()
	}
	for i := 0; i < 64; i++ {
		op()
	}
	allocs := testing.AllocsPerRun(300, op)
	if !ok {
		t.Fatal("load returned wrong data")
	}
	return allocs
}

// A steady-state uncached poll load reads into the pooled record's line
// buffer: nothing on the read path allocates.
func TestUCPollLoadZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	r := newRig(t)
	allocs := loadAllocs(t, r, func(cb func([]byte, error)) { r.a.Load(ucAddr, 8, cb) })
	if allocs != 0 {
		t.Fatalf("UC poll load allocated %.1f allocs/op, want 0", allocs)
	}
}

// Streaming loads land in caller-invisible pooled buffers too: the
// single-line fast path in the uncached-load record, and a multi-line
// extent in the stream record's reusable assembly buffer, with every
// chunk read straight into its offset.
func TestLoadStreamZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, n := range []int{LineSize, 3 * LineSize} {
		r := newRig(t)
		allocs := loadAllocs(t, r, func(cb func([]byte, error)) { r.a.LoadStream(ucAddr, n, cb) })
		if allocs != 0 {
			t.Fatalf("%d-byte stream load allocated %.1f allocs/op, want 0", n, allocs)
		}
	}
}
