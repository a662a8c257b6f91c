package mpi

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/topology"
)

func world(t testing.TB, nodes int) (*core.Cluster, *World) {
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
	w, err := NewWorld(os, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c, w
}

func TestEagerSendRecv(t *testing.T) {
	c, w := world(t, 2)
	want := []byte("eager payload")
	var got []byte
	w.Rank(1).Recv(0, 7, func(d []byte, err error) {
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		got = d
	})
	w.Rank(0).Send(1, 7, want, func(err error) {
		if err != nil {
			t.Errorf("send: %v", err)
		}
	})
	c.Run()
	if !bytes.Equal(got, want) {
		t.Errorf("got %q want %q", got, want)
	}
	if w.Rank(0).Stats().EagerSends != 1 {
		t.Errorf("eager sends = %d", w.Rank(0).Stats().EagerSends)
	}
}

func TestEarlyMessageParksInRing(t *testing.T) {
	c, w := world(t, 2)
	// Send before the receive is posted: with demand-driven pumping the
	// message waits inside the 4 KB ring until someone polls.
	w.Rank(0).Send(1, 3, []byte("early"), func(err error) {
		if err != nil {
			t.Errorf("send: %v", err)
		}
	})
	c.Run()
	if got := w.Rank(1).Stats().Recvs; got != 0 {
		t.Fatalf("recvs = %d before any Recv was posted", got)
	}
	var got []byte
	w.Rank(1).Recv(0, 3, func(d []byte, err error) { got = d })
	c.Run()
	if string(got) != "early" {
		t.Errorf("got %q", got)
	}
}

func TestTagMismatchParksInUnexpectedQueue(t *testing.T) {
	c, w := world(t, 2)
	var gotWanted []byte
	// Only tag 2 is awaited; the tag-1 message must park in the
	// unexpected queue without blocking delivery of tag 2.
	w.Rank(1).Recv(0, 2, func(d []byte, _ error) { gotWanted = d })
	w.Rank(0).Send(1, 1, []byte("stray"), func(error) {})
	w.Rank(0).Send(1, 2, []byte("wanted"), func(error) {})
	c.Run()
	if string(gotWanted) != "wanted" {
		t.Fatalf("tag-2 recv got %q", gotWanted)
	}
	if w.Rank(1).Stats().Unexpected != 1 {
		t.Errorf("unexpected = %d, want 1", w.Rank(1).Stats().Unexpected)
	}
	var gotStray []byte
	w.Rank(1).Recv(0, 1, func(d []byte, _ error) { gotStray = d })
	c.Run()
	if string(gotStray) != "stray" {
		t.Errorf("stray recv got %q", gotStray)
	}
}

func TestTagMatching(t *testing.T) {
	c, w := world(t, 2)
	var gotA, gotB []byte
	w.Rank(1).Recv(0, 2, func(d []byte, _ error) { gotB = d })
	w.Rank(1).Recv(0, 1, func(d []byte, _ error) { gotA = d })
	w.Rank(0).Send(1, 1, []byte("one"), func(error) {})
	w.Rank(0).Send(1, 2, []byte("two"), func(error) {})
	c.Run()
	if string(gotA) != "one" || string(gotB) != "two" {
		t.Errorf("tag matching: a=%q b=%q", gotA, gotB)
	}
}

func TestAnyTag(t *testing.T) {
	c, w := world(t, 2)
	var got []byte
	w.Rank(1).Recv(0, AnyTag, func(d []byte, _ error) { got = d })
	w.Rank(0).Send(1, 42, []byte("whatever"), func(error) {})
	c.Run()
	if string(got) != "whatever" {
		t.Errorf("AnyTag recv got %q", got)
	}
}

func TestRendezvousLargeMessage(t *testing.T) {
	c, w := world(t, 2)
	big := make([]byte, 100<<10)
	for i := range big {
		big[i] = byte(i * 17)
	}
	var got []byte
	sendDone := false
	w.Rank(1).Recv(0, 9, func(d []byte, err error) {
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		got = d
	})
	w.Rank(0).Send(1, 9, big, func(err error) {
		if err != nil {
			t.Errorf("send: %v", err)
		}
		sendDone = true
	})
	c.Run()
	if !bytes.Equal(got, big) {
		t.Fatal("rendezvous payload corrupted")
	}
	if !sendDone {
		t.Error("rendezvous send never acked")
	}
	if w.Rank(0).Stats().RndvSends != 1 {
		t.Errorf("rndv sends = %d", w.Rank(0).Stats().RndvSends)
	}
}

func TestRendezvousSerializesPerDestination(t *testing.T) {
	c, w := world(t, 2)
	const k = 3
	recvd := 0
	var pump func()
	pump = func() {
		w.Rank(1).Recv(0, 5, func(d []byte, err error) {
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if d[0] != byte(recvd) {
				t.Errorf("rendezvous order broken: got %d want %d", d[0], recvd)
			}
			recvd++
			if recvd < k {
				pump()
			}
		})
	}
	pump()
	acked := 0
	for i := 0; i < k; i++ {
		big := make([]byte, 64<<10)
		big[0] = byte(i)
		w.Rank(0).Send(1, 5, big, func(err error) {
			if err != nil {
				t.Errorf("send: %v", err)
			}
			acked++
		})
	}
	c.Run()
	if recvd != k || acked != k {
		t.Fatalf("recvd=%d acked=%d want %d", recvd, acked, k)
	}
}

func TestSendValidation(t *testing.T) {
	_, w := world(t, 2)
	w.Rank(0).Send(0, 1, []byte("x"), func(err error) {
		if err == nil {
			t.Error("self-send accepted")
		}
	})
	w.Rank(0).Send(1, internalTagBase, []byte("x"), func(err error) {
		if err == nil {
			t.Error("internal tag accepted from user code")
		}
	})
	w.Rank(0).Recv(5, 0, func(_ []byte, err error) {
		if err == nil {
			t.Error("invalid source accepted")
		}
	})
}

func TestBarrier(t *testing.T) {
	c, w := world(t, 4)
	released := make([]bool, 4)
	for r := 0; r < 4; r++ {
		r := r
		w.Rank(r).Barrier(func(err error) {
			if err != nil {
				t.Errorf("rank %d barrier: %v", r, err)
			}
			released[r] = true
		})
	}
	c.Run()
	for r, ok := range released {
		if !ok {
			t.Errorf("rank %d never released", r)
		}
	}
}

func TestBarrierBlocksUntilAllArrive(t *testing.T) {
	c, w := world(t, 3)
	released := 0
	for r := 0; r < 2; r++ { // only 2 of 3 ranks enter
		w.Rank(r).Barrier(func(error) { released++ })
	}
	// The blocked ranks poll indefinitely; bound the run instead of
	// draining it.
	c.RunFor(500 * sim.Microsecond)
	if released != 0 {
		t.Fatalf("%d ranks released with one rank missing", released)
	}
	w.Rank(2).Barrier(func(error) { released++ })
	c.Run()
	if released != 3 {
		t.Fatalf("released = %d, want 3", released)
	}
}

func TestBcastTreeShape(t *testing.T) {
	p, ch := bcastTree(0, 8)
	if p != -1 || len(ch) != 3 || ch[0] != 1 || ch[1] != 2 || ch[2] != 4 {
		t.Errorf("root tree: parent=%d children=%v", p, ch)
	}
	p, ch = bcastTree(4, 8)
	if p != 0 || len(ch) != 2 || ch[0] != 5 || ch[1] != 6 {
		t.Errorf("vrank 4: parent=%d children=%v", p, ch)
	}
	p, ch = bcastTree(7, 8)
	if p != 6 || len(ch) != 0 {
		t.Errorf("vrank 7: parent=%d children=%v", p, ch)
	}
}

func TestBcast(t *testing.T) {
	c, w := world(t, 4)
	want := []byte("broadcast me")
	got := make([][]byte, 4)
	for r := 0; r < 4; r++ {
		r := r
		var in []byte
		if r == 2 {
			in = want
		}
		w.Rank(r).Bcast(2, in, func(d []byte, err error) {
			if err != nil {
				t.Errorf("rank %d bcast: %v", r, err)
			}
			got[r] = bytes.Clone(d) // borrowed until the callback returns
		})
	}
	c.Run()
	for r := 0; r < 4; r++ {
		if !bytes.Equal(got[r], want) {
			t.Errorf("rank %d got %q", r, got[r])
		}
	}
}

func TestReduceSum(t *testing.T) {
	c, w := world(t, 4)
	var rootGot []float64
	for r := 0; r < 4; r++ {
		r := r
		vec := []float64{float64(r + 1), float64(10 * (r + 1))}
		w.Rank(r).Reduce(0, vec, Sum, func(res []float64, err error) {
			if err != nil {
				t.Errorf("rank %d reduce: %v", r, err)
			}
			if r == 0 {
				rootGot = slices.Clone(res)
			} else if res != nil {
				t.Errorf("non-root rank %d got a result", r)
			}
		})
	}
	c.Run()
	if len(rootGot) != 2 || rootGot[0] != 10 || rootGot[1] != 100 {
		t.Errorf("reduce = %v, want [10 100]", rootGot)
	}
}

func TestAllreduceMax(t *testing.T) {
	c, w := world(t, 3)
	got := make([][]float64, 3)
	for r := 0; r < 3; r++ {
		r := r
		w.Rank(r).Allreduce([]float64{float64(r), -float64(r)}, Max, func(res []float64, err error) {
			if err != nil {
				t.Errorf("rank %d allreduce: %v", r, err)
			}
			got[r] = slices.Clone(res)
		})
	}
	c.Run()
	for r := 0; r < 3; r++ {
		if len(got[r]) != 2 || got[r][0] != 2 || got[r][1] != 0 {
			t.Errorf("rank %d allreduce = %v, want [2 0]", r, got[r])
		}
	}
}

func TestGather(t *testing.T) {
	c, w := world(t, 4)
	var rootGot [][]byte
	for r := 0; r < 4; r++ {
		r := r
		w.Rank(r).Gather(1, []byte{byte(r * 11)}, func(all [][]byte, err error) {
			if err != nil {
				t.Errorf("rank %d gather: %v", r, err)
			}
			if r == 1 {
				rootGot = all
			}
		})
	}
	c.Run()
	if len(rootGot) != 4 {
		t.Fatalf("gather returned %d slots", len(rootGot))
	}
	for r := 0; r < 4; r++ {
		if len(rootGot[r]) != 1 || rootGot[r][0] != byte(r*11) {
			t.Errorf("slot %d = %v", r, rootGot[r])
		}
	}
}

func TestConsecutiveCollectivesDoNotCollide(t *testing.T) {
	c, w := world(t, 2)
	results := []float64{}
	for iter := 0; iter < 3; iter++ {
		for r := 0; r < 2; r++ {
			r := r
			w.Rank(r).Allreduce([]float64{1}, Sum, func(res []float64, err error) {
				if err != nil {
					t.Errorf("iter allreduce: %v", err)
					return
				}
				if r == 0 {
					results = append(results, res[0])
				}
			})
		}
		c.Run()
	}
	if len(results) != 3 {
		t.Fatalf("completed %d of 3 allreduces", len(results))
	}
	for _, v := range results {
		if v != 2 {
			t.Errorf("allreduce = %v, want 2", v)
		}
	}
}

func TestFloat64Codec(t *testing.T) {
	in := []float64{1.5, -2.25, math.Pi, 0}
	out, err := ToFloat64s(Float64s(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("codec[%d]: %v != %v", i, in[i], out[i])
		}
	}
	if _, err := ToFloat64s([]byte{1, 2, 3}); err == nil {
		t.Error("ragged payload accepted")
	}
}

func TestSendRecvExchange(t *testing.T) {
	c, w := world(t, 2)
	var got0, got1 []byte
	w.Rank(0).SendRecv(1, 4, []byte("from0"), func(d []byte, err error) {
		if err != nil {
			t.Errorf("rank0: %v", err)
		}
		got0 = d
	})
	w.Rank(1).SendRecv(0, 4, []byte("from1"), func(d []byte, err error) {
		if err != nil {
			t.Errorf("rank1: %v", err)
		}
		got1 = d
	})
	c.Run()
	if string(got0) != "from1" || string(got1) != "from0" {
		t.Errorf("exchange: %q %q", got0, got1)
	}
}

func TestScatter(t *testing.T) {
	c, w := world(t, 4)
	parts := [][]byte{{10}, {11}, {12}, {13}}
	got := make([][]byte, 4)
	for r := 0; r < 4; r++ {
		r := r
		var in [][]byte
		if r == 1 {
			in = parts
		}
		w.Rank(r).Scatter(1, in, func(d []byte, err error) {
			if err != nil {
				t.Errorf("rank %d scatter: %v", r, err)
			}
			got[r] = d
		})
	}
	c.Run()
	for r := 0; r < 4; r++ {
		if len(got[r]) != 1 || got[r][0] != byte(10+r) {
			t.Errorf("rank %d scatter got %v", r, got[r])
		}
	}
}

func TestScatterValidatesParts(t *testing.T) {
	c, w := world(t, 2)
	w.Rank(0).Scatter(0, [][]byte{{1}}, func(_ []byte, err error) {
		if err == nil {
			t.Error("short parts accepted")
		}
	})
	c.RunFor(10 * sim.Microsecond)
}

func TestAlltoall(t *testing.T) {
	c, w := world(t, 3)
	results := make([][][]byte, 3)
	for r := 0; r < 3; r++ {
		r := r
		data := make([][]byte, 3)
		for j := range data {
			data[j] = []byte{byte(r*10 + j)}
		}
		w.Rank(r).Alltoall(data, func(out [][]byte, err error) {
			if err != nil {
				t.Errorf("rank %d alltoall: %v", r, err)
			}
			results[r] = out
		})
	}
	c.Run()
	for r := 0; r < 3; r++ {
		if results[r] == nil {
			t.Fatalf("rank %d never completed", r)
		}
		for i := 0; i < 3; i++ {
			want := byte(i*10 + r) // rank i's slice addressed to r
			if len(results[r][i]) != 1 || results[r][i][0] != want {
				t.Errorf("rank %d slot %d = %v, want [%d]", r, i, results[r][i], want)
			}
		}
	}
}

func TestAlltoallThenBarrier(t *testing.T) {
	// Back-to-back collectives of different kinds must not cross-match.
	c, w := world(t, 3)
	done := 0
	for r := 0; r < 3; r++ {
		r := r
		data := [][]byte{{1}, {2}, {3}}
		w.Rank(r).Alltoall(data, func(_ [][]byte, err error) {
			if err != nil {
				t.Errorf("alltoall: %v", err)
				return
			}
			w.Rank(r).Barrier(func(err error) {
				if err != nil {
					t.Errorf("barrier: %v", err)
					return
				}
				done++
			})
		})
	}
	c.Run()
	if done != 3 {
		t.Fatalf("done = %d, want 3", done)
	}
}

func TestAllreduceRingMatchesTree(t *testing.T) {
	c, w := world(t, 4)
	const vecLen = 32
	gotRing := make([][]float64, 4)
	for r := 0; r < 4; r++ {
		r := r
		vec := make([]float64, vecLen)
		for i := range vec {
			vec[i] = float64(r*100 + i)
		}
		w.Rank(r).AllreduceRing(vec, Sum, func(res []float64, err error) {
			if err != nil {
				t.Errorf("rank %d ring: %v", r, err)
			}
			gotRing[r] = res
		})
	}
	c.Run()
	// Expected: sum over ranks of (r*100 + i) = 600 + 4i.
	for r := 0; r < 4; r++ {
		if len(gotRing[r]) != vecLen {
			t.Fatalf("rank %d result len %d", r, len(gotRing[r]))
		}
		for i, v := range gotRing[r] {
			want := float64(600 + 4*i)
			if v != want {
				t.Fatalf("rank %d elem %d = %v, want %v", r, i, v, want)
			}
		}
	}
}

func TestAllreduceRingSmallVectorFallsBack(t *testing.T) {
	c, w := world(t, 4)
	got := make([][]float64, 4)
	for r := 0; r < 4; r++ {
		r := r
		w.Rank(r).AllreduceRing([]float64{float64(r)}, Max, func(res []float64, err error) {
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
			got[r] = slices.Clone(res)
		})
	}
	c.Run()
	for r := 0; r < 4; r++ {
		if len(got[r]) != 1 || got[r][0] != 3 {
			t.Errorf("rank %d = %v, want [3]", r, got[r])
		}
	}
}

func TestAllreduceRingConsecutiveInvocations(t *testing.T) {
	c, w := world(t, 3)
	for round := 0; round < 2; round++ {
		results := 0
		for r := 0; r < 3; r++ {
			vec := make([]float64, 12)
			for i := range vec {
				vec[i] = 1
			}
			w.Rank(r).AllreduceRing(vec, Sum, func(res []float64, err error) {
				if err != nil {
					t.Errorf("round %d: %v", round, err)
					return
				}
				if res[0] != 3 {
					t.Errorf("round %d: res[0] = %v", round, res[0])
				}
				results++
			})
		}
		c.Run()
		if results != 3 {
			t.Fatalf("round %d: %d results", round, results)
		}
	}
}

func TestIsendIrecvWaitall(t *testing.T) {
	c, w := world(t, 2)
	recv := w.Rank(1).Irecv(0, 3)
	send := w.Rank(0).Isend(1, 3, []byte("nonblocking"))
	finished := false
	Waitall([]*Request{recv, send}, func(err error) {
		if err != nil {
			t.Errorf("waitall: %v", err)
		}
		finished = true
	})
	c.Run()
	if !finished {
		t.Fatal("waitall never fired")
	}
	if !recv.Done() || !send.Done() {
		t.Fatal("requests not done")
	}
	if string(recv.Data()) != "nonblocking" {
		t.Errorf("recv data %q", recv.Data())
	}
	if send.Data() != nil {
		t.Error("send request carries data")
	}
}

func TestRequestOnDoneAfterCompletion(t *testing.T) {
	c, w := world(t, 2)
	recv := w.Rank(1).Irecv(0, 9)
	w.Rank(0).Isend(1, 9, []byte("x"))
	c.Run()
	fired := false
	recv.OnDone(func(d []byte, err error) { fired = err == nil && len(d) == 1 })
	if !fired {
		t.Fatal("OnDone on a completed request did not fire immediately")
	}
}

func TestWaitallPropagatesErrors(t *testing.T) {
	_, w := world(t, 2)
	bad := w.Rank(0).Isend(0, 1, []byte("self")) // invalid destination
	var got error
	Waitall([]*Request{bad}, func(err error) { got = err })
	if got == nil {
		t.Fatal("waitall swallowed the error")
	}
	Waitall(nil, func(err error) {
		if err != nil {
			t.Errorf("empty waitall: %v", err)
		}
	})
	Waitall([]*Request{nil}, func(err error) {
		if err == nil {
			t.Error("nil request accepted")
		}
	})
}

// Property: both allreduce algorithms compute the exact element-wise
// sum for arbitrary vectors, and agree with each other.
func TestAllreduceAlgorithmsAgreeProperty(t *testing.T) {
	f := func(seed int64, lenRaw uint8) bool {
		n := 3
		vecLen := int(lenRaw%24) + n // >= n so the ring path engages
		c, w := world(t, n)
		vals := make([][]float64, n)
		want := make([]float64, vecLen)
		x := seed
		for r := 0; r < n; r++ {
			vals[r] = make([]float64, vecLen)
			for i := range vals[r] {
				x = x*6364136223846793005 + 1442695040888963407
				vals[r][i] = float64(int16(x >> 32)) // modest magnitudes
				want[i] += vals[r][i]
			}
		}
		got := make([][]float64, n)
		gotRing := make([][]float64, n)
		for r := 0; r < n; r++ {
			r := r
			w.Rank(r).Allreduce(vals[r], Sum, func(res []float64, err error) {
				if err == nil {
					got[r] = slices.Clone(res)
				}
			})
		}
		c.Run()
		for r := 0; r < n; r++ {
			r := r
			w.Rank(r).AllreduceRing(vals[r], Sum, func(res []float64, err error) {
				if err == nil {
					gotRing[r] = res
				}
			})
		}
		c.Run()
		for r := 0; r < n; r++ {
			if got[r] == nil || gotRing[r] == nil {
				return false
			}
			for i := range want {
				if got[r][i] != want[i] || gotRing[r][i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
