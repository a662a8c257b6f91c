package core

import (
	"fmt"
	"reflect"
	"testing"
)

// gridGraph builds a w×h mesh partition graph (row-major), optionally
// closing both dimensions into a torus. Unit edge weights.
func gridGraph(w, h int, torus bool) PartitionGraph {
	g := PartitionGraph{Nodes: w * h}
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				g.Edges = append(g.Edges, PartitionEdge{A: id(x, y), B: id(x+1, y), W: 1})
			} else if torus && w > 2 {
				g.Edges = append(g.Edges, PartitionEdge{A: id(x, y), B: id(0, y), W: 1})
			}
			if y+1 < h {
				g.Edges = append(g.Edges, PartitionEdge{A: id(x, y), B: id(x, y+1), W: 1})
			} else if torus && h > 2 {
				g.Edges = append(g.Edges, PartitionEdge{A: id(x, y), B: id(x, 0), W: 1})
			}
		}
	}
	return g
}

// contiguousSplit is the by-index reference cut: node i goes to
// partition i*parts/n. It ignores the link graph entirely but matches
// the paper's supernode-chain layouts, where index order is physical
// order — the baseline the graph-cut partitioner must match or beat.
func contiguousSplit(n, parts int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i * parts / n
	}
	return out
}

// validateAssignment checks a partitioner output: right length,
// indices in range, no empty partition.
func validateAssignment(assign []int, nodes, parts int) error {
	if len(assign) != nodes {
		return fmt.Errorf("assigned %d of %d nodes", len(assign), nodes)
	}
	seen := make([]bool, parts)
	for i, p := range assign {
		if p < 0 || p >= parts {
			return fmt.Errorf("node %d assigned to partition %d of %d", i, p, parts)
		}
		seen[p] = true
	}
	for p, ok := range seen {
		if !ok {
			return fmt.Errorf("partition %d is empty", p)
		}
	}
	return nil
}

func chainGraph(n int) PartitionGraph {
	g := PartitionGraph{Nodes: n}
	for i := 0; i+1 < n; i++ {
		g.Edges = append(g.Edges, PartitionEdge{A: i, B: i + 1, W: 1})
	}
	return g
}

// partitionFixtures are the graphs the tentpole cares about: paper
// chains plus the mesh/torus fabrics the bench workloads run on.
var partitionFixtures = []struct {
	name string
	g    PartitionGraph
}{
	{"chain-5", chainGraph(5)},
	{"chain-16", chainGraph(16)},
	{"mesh-4x4", gridGraph(4, 4, false)},
	{"mesh-8x8", gridGraph(8, 8, false)},
	{"torus-4x4", gridGraph(4, 4, true)},
	{"torus-16x16", gridGraph(16, 16, true)},
}

// TestGraphCutBalanceBound: with unit node weights, no partition may
// exceed the ceiling of the fair share.
func TestGraphCutBalanceBound(t *testing.T) {
	for _, fx := range partitionFixtures {
		for _, parts := range []int{2, 3, 4, 8} {
			if parts > fx.g.Nodes {
				continue
			}
			assign, err := fx.g.Assign(parts)
			if err != nil {
				t.Fatalf("%s p=%d: %v", fx.name, parts, err)
			}
			if err := validateAssignment(assign, fx.g.Nodes, parts); err != nil {
				t.Fatalf("%s p=%d: %v", fx.name, parts, err)
			}
			sizes := make([]int, parts)
			for _, p := range assign {
				sizes[p]++
			}
			bound := (fx.g.Nodes + parts - 1) / parts
			for p, sz := range sizes {
				if sz > bound {
					t.Errorf("%s p=%d: partition %d holds %d nodes, balance bound %d (sizes %v)",
						fx.name, parts, p, sz, bound, sizes)
				}
			}
		}
	}
}

// TestGraphCutBeatsOrMatchesSupernode: the graph-cut partitioner's cut
// weight must never exceed the by-index split's on any fixture.
func TestGraphCutBeatsOrMatchesSupernode(t *testing.T) {
	for _, fx := range partitionFixtures {
		for _, parts := range []int{2, 4, 8} {
			if parts > fx.g.Nodes {
				continue
			}
			gc, err := fx.g.Assign(parts)
			if err != nil {
				t.Fatalf("%s p=%d graph-cut: %v", fx.name, parts, err)
			}
			sn := contiguousSplit(fx.g.Nodes, parts)
			_, gcW := fx.g.CutOf(gc)
			_, snW := fx.g.CutOf(sn)
			if gcW > snW {
				t.Errorf("%s p=%d: graph-cut weight %.3f exceeds supernode %.3f",
					fx.name, parts, gcW, snW)
			}
		}
	}
}

// TestGraphCutExploitsTopology: on a chain whose node indices are not
// in physical order, the by-index split cuts several links while the
// graph-cut partitioner finds the single-link cut.
func TestGraphCutExploitsTopology(t *testing.T) {
	// Physical chain 0-2-4-1-3-5: indices interleave the two halves.
	g := PartitionGraph{Nodes: 6, Edges: []PartitionEdge{
		{A: 0, B: 2, W: 1}, {A: 2, B: 4, W: 1}, {A: 4, B: 1, W: 1},
		{A: 1, B: 3, W: 1}, {A: 3, B: 5, W: 1},
	}}
	gc, err := g.Assign(2)
	if err != nil {
		t.Fatal(err)
	}
	sn := contiguousSplit(g.Nodes, 2)
	gcL, _ := g.CutOf(gc)
	snL, _ := g.CutOf(sn)
	if gcL != 1 {
		t.Errorf("graph-cut cut %d links on the interleaved chain, want 1 (assign %v)", gcL, gc)
	}
	if snL != 3 {
		t.Errorf("supernode cut %d links, fixture expects 3", snL)
	}
}

// TestGraphCutPrefersCheapEdges: a heterogeneous chain with one
// low-affinity (slow) link should be cut at that link.
func TestGraphCutPrefersCheapEdges(t *testing.T) {
	g := PartitionGraph{Nodes: 6, Edges: []PartitionEdge{
		{A: 0, B: 1, W: 1}, {A: 1, B: 2, W: 1}, {A: 2, B: 3, W: 0.1},
		{A: 3, B: 4, W: 1}, {A: 4, B: 5, W: 1},
	}}
	assign, err := g.Assign(2)
	if err != nil {
		t.Fatal(err)
	}
	if links, w := g.CutOf(assign); links != 1 || w > 0.1+1e-9 {
		t.Errorf("cut %d links weight %.3f, want the single 0.1 edge (assign %v)", links, w, assign)
	}
}

// TestPartitionersDeterministic: identical inputs must yield identical
// assignments — parallel runs are reproduced across processes from the
// topology alone.
func TestPartitionersDeterministic(t *testing.T) {
	for _, fx := range partitionFixtures {
		a1, err := fx.g.Assign(4)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		a2, _ := fx.g.Assign(4)
		if !reflect.DeepEqual(a1, a2) {
			t.Errorf("%s: graph-cut not deterministic", fx.name)
		}
	}
}

// TestGraphCutChainMatchesSupernode: on an in-order chain the greedy
// growth degenerates to the contiguous split, keeping the paper-layout
// behavior byte-for-byte.
func TestGraphCutChainMatchesSupernode(t *testing.T) {
	g := chainGraph(5)
	gc, err := g.Assign(2)
	if err != nil {
		t.Fatal(err)
	}
	sn := contiguousSplit(g.Nodes, 2)
	if !reflect.DeepEqual(gc, sn) {
		t.Errorf("chain-5 p=2: graph-cut %v, supernode %v", gc, sn)
	}
}

// TestPartitionArgErrors: degenerate shapes are rejected.
func TestPartitionArgErrors(t *testing.T) {
	if _, err := chainGraph(2).Assign(3); err == nil {
		t.Error("3 partitions over 2 nodes accepted")
	}
	if _, err := chainGraph(2).Assign(0); err == nil {
		t.Error("0 partitions accepted")
	}
	bad := PartitionGraph{Nodes: 2, Edges: []PartitionEdge{{A: 0, B: 7, W: 1}}}
	if _, err := bad.Assign(2); err == nil {
		t.Error("out-of-range edge accepted")
	}
}
