package topology

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/errs"
)

// hopWalkValidate is the pairwise check Validate replaced: walk every
// ordered pair's route with HopCount, in row-major order. It is kept as
// the oracle the per-destination resolve must reproduce exactly.
func hopWalkValidate(t *Topology) error {
	for s := 0; s < t.n; s++ {
		for d := 0; d < t.n; d++ {
			if s != d && t.HopCount(s, d) < 0 {
				return fmt.Errorf("topology: routing from %d to %d loops or dead-ends: %w",
					s, d, errs.ErrUnroutable)
			}
		}
	}
	return nil
}

// exampleTopologies builds every constructor over a spread of sizes,
// up to the 16x16 torus and mesh the benchmarks boot.
func exampleTopologies(t *testing.T) []*Topology {
	t.Helper()
	var out []*Topology
	add := func(topo *Topology, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, topo)
	}
	for _, n := range []int{2, 3, 8, 16} {
		add(Chain(n))
	}
	for _, n := range []int{3, 4, 7, 16} {
		add(Ring(n))
	}
	for _, d := range [][2]int{{1, 2}, {4, 4}, {3, 5}, {16, 16}} {
		add(Mesh(d[0], d[1]))
	}
	for _, d := range [][2]int{{3, 3}, {4, 4}, {5, 3}, {16, 16}} {
		add(Torus(d[0], d[1]))
	}
	for n := 2; n <= 5; n++ {
		add(FullyConnected(n))
	}
	for d := 1; d <= 4; d++ {
		add(Hypercube(d))
	}
	return out
}

// checkValidateMatchesHopWalk fails t unless Validate and the oracle
// agree: both nil, or the same error text.
func checkValidateMatchesHopWalk(t *testing.T, topo *Topology) {
	t.Helper()
	got, want := topo.Validate(), hopWalkValidate(topo)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: Validate = %v, pairwise walk = %v", topo.Name(), got, want)
	}
}

// randomTopology wires n nodes with random links (some ports left
// unwired) and routes by a random table seeded with breadth-first
// next hops, then injects faults: dead ends (port -1 or past the
// budget), exits through unwired ports, and two-node loops.
func randomTopology(rng *rand.Rand, n, faults int) *Topology {
	t := newTopology(fmt.Sprintf("random-%d", n), n, OpteronPorts)
	for i := 0; i < 2*n; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b && t.portTo(a, b) < 0 {
			_ = t.wire(a, b) // a full port budget just skips the link
		}
	}
	table := make([]int, n*n)
	for dst := 0; dst < n; dst++ {
		// Breadth-first from dst: each node reached routes to the
		// neighbor it was reached from. Unreached nodes dead-end.
		for src := 0; src < n; src++ {
			table[dst*n+src] = -1
		}
		seen := make([]bool, n)
		seen[dst] = true
		queue := []int{dst}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range t.Neighbors(cur) {
				if !seen[nb.Peer] {
					seen[nb.Peer] = true
					table[dst*n+nb.Peer] = t.portTo(nb.Peer, cur)
					queue = append(queue, nb.Peer)
				}
			}
		}
	}
	for i := 0; i < faults; i++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		if src == dst {
			continue
		}
		switch rng.Intn(4) {
		case 0: // dead end
			table[dst*n+src] = -1
		case 1: // a port past the budget
			table[dst*n+src] = OpteronPorts + rng.Intn(3)
		case 2: // an unwired port, if src has one
			for p, peer := range t.ports[src] {
				if peer < 0 {
					table[dst*n+src] = p
					break
				}
			}
		case 3: // a loop: src and a neighbor route to each other
			if nbrs := t.Neighbors(src); len(nbrs) > 0 {
				nb := nbrs[rng.Intn(len(nbrs))]
				if nb.Peer != dst {
					table[dst*n+src] = nb.Port
					table[dst*n+nb.Peer] = t.portTo(nb.Peer, src)
				}
			}
		}
	}
	t.route = func(t *Topology, src, dst int) int { return table[dst*n+src] }
	return t
}

// withInjectedFaults returns a copy of topo whose routing is overridden
// for a few random (src, dst) pairs: a dead end, a loop between
// neighbors, or an exit through a port past the budget.
func withInjectedFaults(rng *rand.Rand, topo *Topology, faults int) *Topology {
	n := topo.n
	over := make(map[[2]int]int)
	for i := 0; i < faults; i++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		if src == dst {
			continue
		}
		switch rng.Intn(3) {
		case 0:
			over[[2]int{src, dst}] = -1
		case 1:
			over[[2]int{src, dst}] = topo.maxPorts
		case 2:
			nbrs := topo.Neighbors(src)
			nb := nbrs[rng.Intn(len(nbrs))]
			if nb.Peer != dst {
				over[[2]int{src, dst}] = nb.Port
				over[[2]int{nb.Peer, dst}] = topo.portTo(nb.Peer, src)
			}
		}
	}
	c := *topo
	base := topo.route
	c.route = func(t *Topology, src, dst int) int {
		if p, ok := over[[2]int{src, dst}]; ok {
			return p
		}
		return base(t, src, dst)
	}
	return &c
}

// TestValidateMatchesPairwiseHopWalkProperty holds the per-destination
// Validate to the pairwise HopCount walk it replaced: on every example
// topology as built, with faults injected into their routing, and on
// seeded random route tables, both report nil or the same first
// failing (src, dst) pair.
func TestValidateMatchesPairwiseHopWalkProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	failures := 0
	for _, topo := range exampleTopologies(t) {
		if err := topo.Validate(); err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
		checkValidateMatchesHopWalk(t, topo)
		for trial := 0; trial < 20; trial++ {
			bad := withInjectedFaults(rng, topo, 1+trial%4)
			checkValidateMatchesHopWalk(t, bad)
			if bad.Validate() != nil {
				failures++
			}
		}
	}
	for trial := 0; trial < 500; trial++ {
		topo := randomTopology(rng, 2+rng.Intn(24), rng.Intn(6))
		checkValidateMatchesHopWalk(t, topo)
		if topo.Validate() != nil {
			failures++
		}
	}
	// The property means little unless many cases actually fail.
	if failures < 300 {
		t.Fatalf("only %d failing cases generated", failures)
	}
}

// FuzzValidateMatchesHopWalk searches random route tables for a case
// where Validate and the pairwise walk disagree.
func FuzzValidateMatchesHopWalk(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(2))
	f.Add(int64(7), uint8(2), uint8(0))
	f.Add(int64(42), uint8(30), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, n, faults uint8) {
		rng := rand.New(rand.NewSource(seed))
		checkValidateMatchesHopWalk(t, randomTopology(rng, 2+int(n)%40, int(faults)%16))
	})
}

// TestValidateNextHopCallsLinear pins the cost bound: Validate asks
// NextHop at most once per ordered pair, where the pairwise walk asked
// once per hop of every route.
func TestValidateNextHopCallsLinear(t *testing.T) {
	topo, err := Torus(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	base := topo.route
	topo.route = func(t *Topology, src, dst int) int {
		calls++
		return base(t, src, dst)
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := topo.N(); calls > n*(n-1) {
		t.Fatalf("Validate made %d NextHop calls, bound n(n-1) = %d", calls, n*(n-1))
	}
}
