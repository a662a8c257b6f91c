package pgas

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/topology"
)

func space(t *testing.T, nodes int) (*core.Cluster, *Space) {
	t.Helper()
	topo, err := topology.Chain(nodes)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.New(topo, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	os := kernel.Install(c, kernel.Options{SMCDisabled: true})
	s, err := New(os, Config{SegBytes: 64 << 10, Msg: msg.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	return c, s
}

func TestOwnerMapping(t *testing.T) {
	_, s := space(t, 4)
	if s.Size() != 4*64<<10 {
		t.Fatalf("size = %d", s.Size())
	}
	node, local := s.Owner(0)
	if node != 0 || local != 0 {
		t.Errorf("Owner(0) = %d,%d", node, local)
	}
	node, local = s.Owner(64<<10 + 100)
	if node != 1 || local != 100 {
		t.Errorf("Owner = %d,%d", node, local)
	}
}

func TestLocalPutGet(t *testing.T) {
	c, s := space(t, 2)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	s.Put(0, 128, data, func(err error) {
		if err != nil {
			t.Errorf("put: %v", err)
		}
	})
	c.Run()
	var got []byte
	s.Get(0, 128, 8, func(d []byte, err error) {
		if err != nil {
			t.Errorf("get: %v", err)
		}
		got = d
	})
	c.Run()
	if !bytes.Equal(got, data) {
		t.Errorf("got %v", got)
	}
}

// A local Get reads through the core's pooled load buffers, which the
// next load reuses; the result handed to the caller must be its own.
func TestLocalGetSurvivesLaterReads(t *testing.T) {
	c, s := space(t, 2)
	first := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	second := []byte{9, 9, 9, 9, 9, 9, 9, 9}
	s.Put(0, 128, first, func(error) {})
	s.Put(0, 256, second, func(error) {})
	c.Run()
	var got1, got2 []byte
	s.Get(0, 128, 8, func(d []byte, err error) {
		if err != nil {
			t.Errorf("get: %v", err)
		}
		got1 = d
	})
	c.Run()
	s.Get(0, 256, 8, func(d []byte, err error) {
		if err != nil {
			t.Errorf("get: %v", err)
		}
		got2 = d
	})
	c.Run()
	if !bytes.Equal(got1, first) || !bytes.Equal(got2, second) {
		t.Errorf("Get results aliased a reused load buffer: %v, %v", got1, got2)
	}
}

func TestRemotePutLocalGet(t *testing.T) {
	c, s := space(t, 2)
	seg := uint64(64 << 10)
	data := []byte("remote store into node1 segment")
	// Pad to dword granularity for the store path.
	for len(data)%8 != 0 {
		data = append(data, 0)
	}
	s.PutStrict(0, seg+256, data, func(err error) {
		if err != nil {
			t.Errorf("put: %v", err)
		}
	})
	c.Run()
	var got []byte
	s.Get(1, seg+256, len(data), func(d []byte, err error) {
		if err != nil {
			t.Errorf("get: %v", err)
		}
		got = d
	})
	c.Run()
	if !bytes.Equal(got, data) {
		t.Errorf("got %q want %q", got, data)
	}
}

func TestRemoteGetNeedsService(t *testing.T) {
	c, s := space(t, 2)
	var gotErr error
	s.Get(0, 64<<10+64, 8, func(_ []byte, err error) { gotErr = err })
	c.Run()
	if gotErr == nil || !strings.Contains(gotErr.Error(), "serving") {
		t.Fatalf("unserved get err = %v", gotErr)
	}
}

func TestRemoteGetViaActiveMessage(t *testing.T) {
	c, s := space(t, 2)
	seg := uint64(64 << 10)
	want := []byte{0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4}
	s.Put(1, seg+512, want, func(err error) {
		if err != nil {
			t.Errorf("put: %v", err)
		}
		s.Fence(1, func() {})
	})
	c.Run()

	s.Serve(1)
	var got []byte
	s.Get(0, seg+512, 8, func(d []byte, err error) {
		if err != nil {
			t.Errorf("get: %v", err)
		}
		got = d
	})
	c.RunFor(100 * sim.Microsecond)
	s.StopServing(1)
	c.Run()
	if !bytes.Equal(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
	if s.Stats(1).AMServed != 1 {
		t.Errorf("AM served = %d", s.Stats(1).AMServed)
	}
	if s.Serving(1) {
		t.Error("still serving after stop")
	}
}

func TestBoundsAndSegmentCrossing(t *testing.T) {
	_, s := space(t, 2)
	s.Put(0, s.Size(), []byte{1, 2, 3, 4}, func(err error) {
		if err == nil {
			t.Error("out-of-space put accepted")
		}
	})
	// Crossing from node0's segment into node1's.
	s.Put(0, 64<<10-4, []byte{1, 2, 3, 4, 5, 6, 7, 8}, func(err error) {
		if err == nil {
			t.Error("segment-crossing put accepted")
		}
	})
}

func TestBarrierReleasesAll(t *testing.T) {
	c, s := space(t, 3)
	released := make([]bool, 3)
	for n := 0; n < 3; n++ {
		n := n
		s.Barrier(n, func(err error) {
			if err != nil {
				t.Errorf("node %d barrier: %v", n, err)
			}
			released[n] = true
		})
	}
	c.Run()
	for n, ok := range released {
		if !ok {
			t.Errorf("node %d never released", n)
		}
	}
	if s.Stats(0).Barriers != 1 {
		t.Errorf("barriers = %d", s.Stats(0).Barriers)
	}
}

func TestBarrierBlocksOnMissingNode(t *testing.T) {
	c, s := space(t, 3)
	released := 0
	s.Barrier(0, func(error) { released++ })
	s.Barrier(1, func(error) { released++ })
	c.RunFor(500 * sim.Microsecond)
	if released != 0 {
		t.Fatalf("%d nodes released early", released)
	}
	s.Barrier(2, func(error) { released++ })
	c.Run()
	if released != 3 {
		t.Fatalf("released = %d", released)
	}
}

func TestConsecutiveBarriers(t *testing.T) {
	c, s := space(t, 2)
	for round := 0; round < 3; round++ {
		done := 0
		for n := 0; n < 2; n++ {
			s.Barrier(n, func(err error) {
				if err != nil {
					t.Errorf("round %d: %v", round, err)
				}
				done++
			})
		}
		c.Run()
		if done != 2 {
			t.Fatalf("round %d: done = %d", round, done)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	topo, _ := topology.Chain(2)
	c, err := core.New(topo, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	os := kernel.Install(c, kernel.Options{SMCDisabled: true})
	if _, err := New(os, Config{SegBytes: 1000}); err == nil {
		t.Error("non-page-granular segment accepted")
	}
	// A segment larger than the UC window must fail during allocation.
	if _, err := New(os, Config{SegBytes: 64 << 20}); err == nil {
		t.Error("oversized segment accepted")
	}
}

func TestFetchAddLocal(t *testing.T) {
	c, s := space(t, 2)
	var olds []uint64
	for i := 0; i < 3; i++ {
		s.FetchAdd(0, 256, 5, func(old uint64, err error) {
			if err != nil {
				t.Errorf("fetchadd: %v", err)
			}
			olds = append(olds, old)
		})
		c.Run()
	}
	want := []uint64{0, 5, 10}
	for i := range want {
		if olds[i] != want[i] {
			t.Errorf("fetchadd %d returned %d, want %d", i, olds[i], want[i])
		}
	}
}

func TestFetchAddRemoteAtomicity(t *testing.T) {
	c, s := space(t, 3)
	// The counter lives on node 2; nodes 0 and 1 hammer it while node 2
	// serves. Every increment must be applied exactly once.
	ctr := s.Size() - 8 // last 8 bytes, owned by node 2
	s.Serve(2)
	const perNode = 10
	done := 0
	seen := map[uint64]int{}
	for n := 0; n < 2; n++ {
		n := n
		var step func(i int)
		step = func(i int) {
			if i >= perNode {
				return
			}
			s.FetchAdd(n, ctr, 1, func(old uint64, err error) {
				if err != nil {
					t.Errorf("node %d fetchadd: %v", n, err)
					return
				}
				seen[old]++
				done++
				step(i + 1)
			})
		}
		step(0)
	}
	c.RunFor(5 * sim.Millisecond)
	s.StopServing(2)
	c.Run()
	if done != 2*perNode {
		t.Fatalf("completed %d of %d fetch-adds", done, 2*perNode)
	}
	// Atomicity: the observed old values are exactly 0..19, each once.
	for v := uint64(0); v < 2*perNode; v++ {
		if seen[v] != 1 {
			t.Fatalf("old value %d observed %d times — lost or duplicated update", v, seen[v])
		}
	}
	final := make([]byte, 8)
	off := ctr - uint64(2)*(s.Size()/3)
	raw, err := c.Node(2).PeekMem(off, 8)
	if err != nil {
		t.Fatal(err)
	}
	copy(final, raw)
	if got := binary.LittleEndian.Uint64(final); got != 2*perNode {
		t.Errorf("final counter = %d, want %d", got, 2*perNode)
	}
}

func TestFetchAddValidation(t *testing.T) {
	c, s := space(t, 2)
	s.FetchAdd(0, 257, 1, func(_ uint64, err error) {
		if err == nil {
			t.Error("unaligned fetch-add accepted")
		}
	})
	s.FetchAdd(0, s.Size()/2+8, 1, func(_ uint64, err error) {
		if err == nil {
			t.Error("fetch-add to unserved owner accepted")
		}
	})
	c.Run()
}
