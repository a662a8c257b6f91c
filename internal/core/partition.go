// Partition derivation for parallel execution: how supernodes are
// grouped onto partition engines. The quality of this cut decides how
// much the conservative executor wins — cross-partition links become
// mailbox traffic and bound the barrier window, so a good assignment
// balances expected event load while cutting as little link affinity
// as possible (slow links are cheap to cut: their latency buys wide
// windows; fast links are expensive).
package core

import (
	"fmt"
	"sort"
)

// PartitionGraph is the topology view the partitioner consumes: one
// node per supernode, one edge per external link. Edge weight is
// affinity — the cost of cutting the edge, canonically the inverse of
// the link's cross-partition latency in nanoseconds. Node weight models
// expected event rate; zero or missing weights count as 1.
type PartitionGraph struct {
	Nodes int
	NodeW []float64
	Edges []PartitionEdge
}

// PartitionEdge is one undirected edge of the partition graph.
type PartitionEdge struct {
	A, B int
	W    float64
}

// partHalf is one directed half of an undirected partition edge in the
// adjacency view the partitioner builds.
type partHalf struct {
	to int
	w  float64
}

// nodeWeight reads g.NodeW with the 1-default.
func (g PartitionGraph) nodeWeight(i int) float64 {
	if i < len(g.NodeW) && g.NodeW[i] > 0 {
		return g.NodeW[i]
	}
	return 1
}

// CutOf reports the number and total affinity weight of edges crossing
// the given assignment — the figure of merit the partitioner minimizes.
func (g PartitionGraph) CutOf(assign []int) (links int, weight float64) {
	for _, e := range g.Edges {
		if e.A < len(assign) && e.B < len(assign) && assign[e.A] != assign[e.B] {
			links++
			weight += e.W
		}
	}
	return links, weight
}

// Assign returns a per-node partition index in [0, parts), every
// partition non-empty. It grows partitions greedily over the link graph
// (greedy graph growing, the GGGP seed phase of multilevel
// partitioners): each partition accretes the unassigned node with the
// strongest affinity to it until the partition's node weight reaches
// its fair share of what remains, then a boundary-refinement sweep
// moves nodes whose foreign affinity exceeds their home affinity when
// balance allows. All tie-breaks are by lowest node index, so the cut
// is deterministic: the same graph and part count always produce the
// same assignment, which keeps parallel runs reproducible across
// processes.
func (g PartitionGraph) Assign(parts int) ([]int, error) {
	if parts < 1 {
		return nil, fmt.Errorf("core: %d partitions", parts)
	}
	if g.Nodes < parts {
		return nil, fmt.Errorf("core: %d nodes cannot fill %d partitions", g.Nodes, parts)
	}
	n := g.Nodes
	adj := make([][]partHalf, n)
	for _, e := range g.Edges {
		if e.A < 0 || e.A >= n || e.B < 0 || e.B >= n || e.A == e.B {
			return nil, fmt.Errorf("core: partition edge %d-%d outside graph of %d nodes", e.A, e.B, n)
		}
		adj[e.A] = append(adj[e.A], partHalf{e.B, e.W})
		adj[e.B] = append(adj[e.B], partHalf{e.A, e.W})
	}
	// Deterministic neighbor order regardless of edge-list order.
	for i := range adj {
		sort.Slice(adj[i], func(a, b int) bool { return adj[i][a].to < adj[i][b].to })
	}

	totalW := 0.0
	for i := 0; i < n; i++ {
		totalW += g.nodeWeight(i)
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	gain := make([]float64, n) // affinity to the partition being grown
	assigned := 0
	remW := totalW
	for part := 0; part < parts; part++ {
		target := remW / float64(parts-part)
		partW := 0.0
		// Gains are relative to the current partition only.
		for i := range gain {
			gain[i] = 0
		}
		for assigned < n {
			// Later partitions must each get at least one node.
			if part < parts-1 && partW > 0 && n-assigned <= parts-part-1 {
				break
			}
			if part < parts-1 && partW >= target {
				break
			}
			pick, best := -1, 0.0
			for i := 0; i < n; i++ {
				if assign[i] == -1 && gain[i] > best {
					pick, best = i, gain[i]
				}
			}
			if pick == -1 {
				// Fresh or disconnected frontier: seed from the lowest
				// unassigned index.
				for i := 0; i < n; i++ {
					if assign[i] == -1 {
						pick = i
						break
					}
				}
			}
			assign[pick] = part
			w := g.nodeWeight(pick)
			partW += w
			remW -= w
			assigned++
			for _, h := range adj[pick] {
				if assign[h.to] == -1 {
					gain[h.to] += h.w
				}
			}
		}
	}
	refineCut(g, adj, assign, parts)
	return assign, nil
}

// refineCut is one deterministic boundary sweep per pass: move a node
// to the adjacent partition it has the most affinity with when that
// strictly beats its home affinity and both partitions stay within the
// balance bound (ceil of the fair share; donors keep at least one
// node). A handful of passes suffices — the greedy growth already
// places all but boundary nodes well.
func refineCut(g PartitionGraph, adj [][]partHalf, assign []int, parts int) {
	n := g.Nodes
	partW := make([]float64, parts)
	partN := make([]int, parts)
	maxNodeW := 0.0
	for i := 0; i < n; i++ {
		w := g.nodeWeight(i)
		partW[assign[i]] += w
		partN[assign[i]]++
		if w > maxNodeW {
			maxNodeW = w
		}
	}
	totalW := 0.0
	for _, w := range partW {
		totalW += w
	}
	// cap is the heaviest a partition may grow: the fair share rounded
	// up by one node's weight.
	capW := totalW/float64(parts) + maxNodeW/2
	aff := make([]float64, parts)
	for pass := 0; pass < 4; pass++ {
		moved := false
		for i := 0; i < n; i++ {
			home := assign[i]
			if partN[home] <= 1 {
				continue
			}
			for p := range aff {
				aff[p] = 0
			}
			for _, h := range adj[i] {
				aff[assign[h.to]] += h.w
			}
			best, bestW := home, aff[home]
			for p := 0; p < parts; p++ {
				if p == home || aff[p] <= bestW {
					continue
				}
				if partW[p]+g.nodeWeight(i) > capW {
					continue
				}
				best, bestW = p, aff[p]
			}
			if best != home {
				w := g.nodeWeight(i)
				partW[home] -= w
				partN[home]--
				partW[best] += w
				partN[best]++
				assign[i] = best
				moved = true
			}
		}
		if !moved {
			break
		}
	}
}
