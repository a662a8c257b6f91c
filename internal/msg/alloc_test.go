package msg

import (
	"bytes"
	"testing"
)

// One spin-poll iteration on an empty ring — peek load, header parse,
// re-arm — reads into the core's pooled line buffer and re-enters the
// loop through continuations built once: it allocates nothing.
func TestEmptyRingPollZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, os := rig(t, 2)
	_, r, err := Open(os, 0, 1, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	r.Recv(func([]byte, error) {})
	eng, core := c.Engine(), c.Node(1).Core()
	// Every iteration issues exactly one uncached load, so stepping until
	// the load counter moves advances the loop by one iteration.
	iterate := func() {
		for loads := core.Counters().Loads; core.Counters().Loads == loads; {
			if !eng.Step() {
				t.Fatal("poll loop stopped on an empty ring")
			}
		}
	}
	for i := 0; i < 64; i++ {
		iterate()
	}
	if allocs := testing.AllocsPerRun(300, iterate); allocs != 0 {
		t.Fatalf("empty-ring poll iteration allocated %.1f allocs/op, want 0", allocs)
	}
	r.Stop()
	c.Run()
}

// Loads below Recv lend their buffers only until the load callback
// returns, and the next load on the same core reuses them. A long frame
// parks its first line across the tail's streaming read, and every
// delivered payload must stay intact afterwards. A second, idle channel
// into the same node keeps its core polling, so load buffers are
// recycled while each long frame is in flight.
func TestRecvPayloadsSurviveLoadBufferReuse(t *testing.T) {
	c, os := rig(t, 3)
	s, r, err := Open(os, 0, 1, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	_, idle, err := Open(os, 2, 1, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	idle.Recv(func([]byte, error) {})
	const msgs = 40
	want := make([][]byte, msgs)
	for i := range want {
		n := 200 // a long frame: peek line plus a streamed tail
		if i%2 == 1 {
			n = 24 // a short frame, whole in the peek line
		}
		want[i] = bytes.Repeat([]byte{byte(0x10 + i)}, n)
	}
	var got [][]byte
	var recv func()
	recv = func() {
		r.Recv(func(d []byte, err error) {
			if err != nil {
				t.Errorf("recv: %v", err)
				idle.Stop()
				return
			}
			got = append(got, d)
			if len(got) == msgs {
				idle.Stop()
				return
			}
			recv()
		})
	}
	recv()
	for _, m := range want {
		s.Send(m, func(err error) {
			if err != nil {
				t.Errorf("send: %v", err)
			}
		})
	}
	c.Run()
	if len(got) != msgs {
		t.Fatalf("received %d of %d messages", len(got), msgs)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("message %d corrupted after later loads: % x", i, got[i][:16])
		}
	}
}
