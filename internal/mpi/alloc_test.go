package mpi

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/core"
)

// allreduceRig is a warm n-rank world whose per-rank Allreduce callbacks
// are built once, so a round measures the library and not the caller.
type allreduceRig struct {
	c      *core.Cluster
	w      *World
	inputs [][]float64
	want   []float64
	cbs    []func([]float64, error)
	bad    int
}

func newAllreduceRig(t testing.TB, n, length int) *allreduceRig {
	c, w := world(t, n)
	rig := &allreduceRig{c: c, w: w, want: make([]float64, length)}
	for r := 0; r < n; r++ {
		in := make([]float64, length)
		for k := range in {
			in[k] = float64(r*length + k)
			rig.want[k] += in[k]
		}
		rig.inputs = append(rig.inputs, in)
		rig.cbs = append(rig.cbs, func(got []float64, err error) {
			if err != nil || !slices.Equal(got, rig.want) {
				rig.bad++
			}
		})
	}
	return rig
}

// round runs one Allreduce on every rank to completion.
func (rig *allreduceRig) round() {
	for r, in := range rig.inputs {
		rig.w.Rank(r).Allreduce(in, Sum, rig.cbs[r])
	}
	rig.c.Run()
}

// A warm Allreduce recycles its envelopes, operation records, reduction
// and result vectors, so the whole 8-rank round — 14 messages through
// the rings, the poll loops and the event core — allocates at most once
// per rank.
func TestAllreduceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const ranks = 8
	rig := newAllreduceRig(t, ranks, 64)
	for i := 0; i < 8; i++ {
		rig.round()
	}
	allocs := testing.AllocsPerRun(100, rig.round)
	if rig.bad != 0 {
		t.Fatalf("%d wrong or failed results", rig.bad)
	}
	if allocs > ranks {
		t.Fatalf("warm %d-rank Allreduce allocated %.1f times per call, want <= %d", ranks, allocs, ranks)
	}
}

// A collective's result is borrowed until its callback returns. A
// callback that starts the next collective and only then reads its
// result must still see its own: the nested call runs on another
// record. With a one-member group every collective completes inside
// the call, so the nested result is written before the outer callback
// reads.
func TestNestedCollectiveKeepsCallerResult(t *testing.T) {
	c, w := world(t, 2)
	w.Fail(1)
	w.Shrink()
	c0 := w.Rank(0)
	var checked int
	var next func(i int)
	next = func(i int) {
		if i == 4 {
			return
		}
		in := []float64{float64(i), float64(10 * i)}
		c0.Allreduce(in, Sum, func(got []float64, err error) {
			if err != nil {
				t.Fatalf("allreduce %d: %v", i, err)
			}
			next(i + 1)
			if !slices.Equal(got, in) {
				t.Errorf("allreduce %d result overwritten by a nested call: %v", i, got)
			}
			checked++
		})
	}
	next(0)
	c0.Reduce(0, []float64{1, 2}, Sum, func(got []float64, err error) {
		if err != nil {
			t.Fatal(err)
		}
		c0.Reduce(0, []float64{3, 4}, Sum, func([]float64, error) {})
		if !slices.Equal(got, []float64{1, 2}) {
			t.Errorf("reduce result overwritten by a nested call: %v", got)
		}
		checked++
	})
	c.Run()
	if checked != 5 {
		t.Fatalf("checked %d of 5 results", checked)
	}
}

// A broadcast that arrived before its Bcast was posted waits in the
// unexpected queue, and the Bcast then completes inside the call. Rank
// 1 receives two broadcasts that way, the second nested in the first's
// callback; the first result must survive the second.
func TestNestedBcastFromInboxKeepsCallerResult(t *testing.T) {
	c, w := world(t, 2)
	root, leaf := w.Rank(0), w.Rank(1)
	first, second := []byte("first"), []byte("second")
	root.Bcast(0, first, func([]byte, error) {})
	root.Bcast(0, second, func([]byte, error) {})
	root.Send(1, 5, []byte("go"), func(error) {})
	var checked int
	// The go message is matched only after both broadcasts were parked.
	leaf.Recv(0, 5, func([]byte, error) {
		leaf.Bcast(0, nil, func(b1 []byte, err error) {
			if err != nil {
				t.Fatal(err)
			}
			leaf.Bcast(0, nil, func(b2 []byte, err error) {
				if err != nil || !bytes.Equal(b2, second) {
					t.Errorf("nested bcast = %q, %v", b2, err)
				}
				checked++
			})
			if !bytes.Equal(b1, first) {
				t.Errorf("bcast result overwritten by a nested call: %q", b1)
			}
			checked++
		})
	})
	c.Run()
	if checked != 2 {
		t.Fatalf("checked %d of 2 results", checked)
	}
	if got := leaf.Stats().Unexpected; got != 2 {
		t.Fatalf("%d unexpected messages, want the 2 broadcasts", got)
	}
}

// The same contract across a real tree: every rank chains the next
// Allreduce, Bcast or Reduce from its callback, then checks the result
// it was handed.
func TestChainedCollectivesKeepResults(t *testing.T) {
	const n, rounds = 8, 6
	c, w := world(t, n)
	var checked int
	for r := 0; r < n; r++ {
		comm := w.Rank(r)
		var step func(i int)
		step = func(i int) {
			if i == rounds {
				return
			}
			in := []float64{float64(r + i), 1}
			want := []float64{float64(n*(n-1)/2 + n*i), n}
			comm.Allreduce(in, Sum, func(got []float64, err error) {
				if err != nil {
					t.Errorf("rank %d allreduce %d: %v", r, i, err)
					return
				}
				payload := []byte{byte(i), byte(r)}
				wantB := []byte{byte(i), 0}
				comm.Bcast(0, payload, func(b []byte, err error) {
					if err != nil {
						t.Errorf("rank %d bcast %d: %v", r, i, err)
						return
					}
					comm.Reduce(0, in, Sum, func(red []float64, err error) {
						if err != nil {
							t.Errorf("rank %d reduce %d: %v", r, i, err)
							return
						}
						step(i + 1)
						if r == 0 && !slices.Equal(red, want) {
							t.Errorf("rank 0 reduce %d = %v, want %v", i, red, want)
						}
						checked++
					})
					if !bytes.Equal(b, wantB) {
						t.Errorf("rank %d bcast %d = %v, want %v", r, i, b, wantB)
					}
				})
				if !slices.Equal(got, want) {
					t.Errorf("rank %d allreduce %d = %v, want %v", r, i, got, want)
				}
			})
		}
		step(0)
	}
	c.Run()
	if checked != n*rounds {
		t.Fatalf("completed %d of %d chained rounds", checked, n*rounds)
	}
}

// BenchmarkAllreduceChain8 times one warm Allreduce of 64 doubles over
// 8 ranks of Chain(8), the shape of the repository benchmark's
// allreduce-chain8 workload.
func BenchmarkAllreduceChain8(b *testing.B) {
	rig := newAllreduceRig(b, 8, 64)
	for i := 0; i < 8; i++ {
		rig.round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.round()
	}
	b.StopTimer()
	if rig.bad != 0 {
		b.Fatalf("%d wrong or failed results", rig.bad)
	}
}
