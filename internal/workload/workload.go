// Package workload generates synthetic traffic patterns over a booted
// TCCluster and measures delivered aggregate bandwidth: the network-
// level evaluation that substantiates the paper's scalability claim
// beyond the two-node prototype. Patterns are the classics of
// interconnect evaluation — nearest neighbor (the best case dimension-
// order meshes are built for), transpose (adversarial for dimension-
// order), uniform random, and hotspot (everyone hammers one node).
package workload

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/sim"
)

// Pattern names the destination of each source's flow k.
type Pattern interface {
	Name() string
	// Dest returns the destination node of flow k from src in an
	// n-node cluster, or -1 to skip the flow.
	Dest(src, n, k int) int
}

// NearestNeighbor sends to (src+1) mod n: adjacent in address order,
// adjacent in a chain and mostly adjacent in a row-major mesh.
type NearestNeighbor struct{}

// Name implements Pattern.
func (NearestNeighbor) Name() string { return "nearest-neighbor" }

// Dest implements Pattern.
func (NearestNeighbor) Dest(src, n, k int) int { return (src + 1) % n }

// Transpose pairs (x,y) with (y,x) on a square mesh: every flow crosses
// the diagonal, the adversarial case for dimension-order routing. Nodes
// on the diagonal stay silent.
type Transpose struct{ Width int }

// Name implements Pattern.
func (p Transpose) Name() string { return "transpose" }

// Dest implements Pattern.
func (p Transpose) Dest(src, n, k int) int {
	w := p.Width
	x, y := src%w, src/w
	dst := x*w + y
	if dst == src {
		return -1
	}
	return dst
}

// UniformRandom draws a destination uniformly from the other nodes,
// deterministically per (seed, src, k).
type UniformRandom struct{ Seed uint64 }

// Name implements Pattern.
func (p UniformRandom) Name() string { return "uniform-random" }

// Dest implements Pattern.
func (p UniformRandom) Dest(src, n, k int) int {
	r := sim.NewRand(p.Seed ^ uint64(src*2654435761) ^ uint64(k)<<32)
	d := r.Intn(n - 1)
	if d >= src {
		d++
	}
	return d
}

// HotSpot aims every node at one target.
type HotSpot struct{ Target int }

// Name implements Pattern.
func (p HotSpot) Name() string { return "hotspot" }

// Dest implements Pattern.
func (p HotSpot) Dest(src, n, k int) int {
	if src == p.Target {
		return -1
	}
	return p.Target
}

// Result summarizes one traffic run.
type Result struct {
	Pattern     string
	Flows       int
	TotalBytes  int
	Duration    sim.Time
	AggregateBW float64 // delivered bytes/second across the whole fabric
	// MaxLinkUtil is the busiest link direction's wire-byte utilization
	// over the run: ~1.0 means a saturated bottleneck link.
	MaxLinkUtil float64
}

func (r Result) String() string {
	return fmt.Sprintf("%s: %d flows, %d KB delivered in %v (%.2f GB/s aggregate, busiest link %.0f%%)",
		r.Pattern, r.Flows, r.TotalBytes>>10, r.Duration, r.AggregateBW/1e9, r.MaxLinkUtil*100)
}

// flow is one source's k-th stream toward its pattern destination.
type flow struct{ src, dst, k int }

// Check rejects a pattern that cannot run on an n-node cluster with
// flowsPerNode flows per source: a destination outside the cluster, or
// no flow at all. Run checks the same way; spec layers call it to
// reject a traffic spec before boot.
func Check(pat Pattern, n, flowsPerNode int) error {
	_, err := plan(pat, n, flowsPerNode)
	return err
}

// plan lists every flow of the pattern, skipping the sources it leaves
// silent.
func plan(pat Pattern, n, flowsPerNode int) ([]flow, error) {
	var flows []flow
	for src := 0; src < n; src++ {
		for k := 0; k < flowsPerNode; k++ {
			dst := pat.Dest(src, n, k)
			if dst < 0 || dst == src {
				continue
			}
			if dst >= n {
				return nil, fmt.Errorf("workload: pattern %s routed %d->%d outside %d nodes: %w",
					pat.Name(), src, dst, n, errs.ErrBadConfig)
			}
			flows = append(flows, flow{src: src, dst: dst, k: k})
		}
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("workload: pattern %s produced no flows: %w", pat.Name(), errs.ErrBadConfig)
	}
	return flows, nil
}

// Run drives flowsPerNode flows of bytesPerFlow raw posted-store bytes
// from every node per the pattern and measures the time until the last
// byte lands in destination DRAM. Flows from one node issue through its
// cores round-robin; delivered bytes are counted by write watches at
// every socket.
func Run(c *core.Cluster, pat Pattern, flowsPerNode, bytesPerFlow int) (Result, error) {
	flows, err := plan(pat, c.N(), flowsPerNode)
	if err != nil {
		return Result{}, err
	}
	total := len(flows) * bytesPerFlow

	// Count landed bytes at every socket of every node. On parallel
	// clusters the watches fire concurrently from partition workers, so
	// the totals are atomics and each watch reads its own node's clock.
	var landed atomic.Int64
	var lastLand atomic.Int64
	var unwatch []func()
	for _, node := range c.Nodes() {
		node := node
		for _, p := range node.Machine().Procs {
			nbr := p.NB
			id := nbr.WatchWrites(0, ^uint64(0), func(_ uint64, nBytes int) {
				landed.Add(int64(nBytes))
				now := int64(node.Now())
				for {
					cur := lastLand.Load()
					if now <= cur || lastLand.CompareAndSwap(cur, now) {
						break
					}
				}
			})
			unwatch = append(unwatch, func() { nbr.Unwatch(id) })
		}
	}
	defer func() {
		for _, un := range unwatch {
			un()
		}
	}()

	// Snapshot link counters to compute per-direction utilization.
	links := c.ExternalLinks()
	before := make([][2]uint64, len(links))
	for i, l := range links {
		before[i] = [2]uint64{l.A().Stats().BytesSent, l.B().Stats().BytesSent}
	}

	// Launch: each flow streams into a distinct window of its
	// destination (beyond the UC window), issued by one of the source's
	// cores.
	start := c.Now()
	var errMu sync.Mutex
	var firstErr error
	for i, f := range flows {
		node := c.Node(f.src)
		coreIdx := f.k % node.CoresPerSocket()
		dstBase := c.Node(f.dst).MemBase() + 8<<20 + uint64(i%16)*uint64(bytesPerFlow+64)
		payload := make([]byte, bytesPerFlow)
		src := node.CoreAt(0, coreIdx)
		src.StoreBlock(dstBase, payload, func(err error) {
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
			src.Sfence(func() {})
		})
	}
	c.Run()
	if firstErr != nil {
		return Result{}, firstErr
	}
	if int(landed.Load()) < total {
		return Result{}, fmt.Errorf("workload: %s delivered %d of %d bytes", pat.Name(), landed.Load(), total)
	}
	dur := sim.Time(lastLand.Load()) - start
	maxUtil := 0.0
	for i, l := range links {
		cap := l.RawBandwidth() * dur.Seconds()
		if cap <= 0 {
			continue
		}
		for side, sent := range [2]uint64{l.A().Stats().BytesSent, l.B().Stats().BytesSent} {
			if u := float64(sent-before[i][side]) / cap; u > maxUtil {
				maxUtil = u
			}
		}
	}
	return Result{
		Pattern:     pat.Name(),
		Flows:       len(flows),
		TotalBytes:  total,
		Duration:    dur,
		AggregateBW: float64(total) / float64(dur) * 1e12,
		MaxLinkUtil: maxUtil,
	}, nil
}
