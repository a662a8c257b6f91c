package scenario

import (
	"fmt"
	"sync/atomic"

	tccluster "repro"
	"repro/internal/stats"
	"repro/internal/workload"
)

func validateCollectives(s *Scenario, topo *tccluster.Topology, w *WorkloadSpec) error {
	if w.Collectives == nil {
		return nil
	}
	for _, t := range w.Collectives.Traffic {
		pat, err := t.pattern(s.Topology)
		if err != nil {
			return err
		}
		if err := workload.Check(pat, topo.N(), t.flows()); err != nil {
			return err
		}
	}
	return nil
}

// flows resolves the per-source flow count (default 1).
func (t TrafficSpec) flows() int {
	if t.FlowsPerNode <= 0 {
		return 1
	}
	return t.FlowsPerNode
}

// pattern lowers one traffic spec to the workload vocabulary.
func (t TrafficSpec) pattern(topo TopologySpec) (workload.Pattern, error) {
	switch t.Pattern {
	case "nearest-neighbor":
		return workload.NearestNeighbor{}, nil
	case "transpose":
		w := t.Width
		if w <= 0 {
			w = topo.Width
		}
		if w <= 0 {
			return nil, badf("transpose traffic needs a width")
		}
		return workload.Transpose{Width: w}, nil
	case "hotspot":
		return workload.HotSpot{Target: t.Target}, nil
	case "uniform-random":
		return workload.UniformRandom{Seed: t.Seed}, nil
	default:
		return nil, badf("unknown traffic pattern %q", t.Pattern)
	}
}

// runCollectives is the fabric shakedown the cluster16 example performs:
// boot the whole fabric, time MPI collectives across every rank, drive
// the classic traffic patterns, and print the per-link accounting.
func runCollectives(rc *runCtx, w *WorkloadSpec) error {
	vecLen, bcastBytes := 256, 1024
	var traffic []TrafficSpec
	if p := w.Collectives; p != nil {
		if p.VectorDoubles > 0 {
			vecLen = p.VectorDoubles
		}
		if p.BcastBytes > 0 {
			bcastBytes = p.BcastBytes
		}
		traffic = p.Traffic
	}
	c, err := rc.cluster()
	if err != nil {
		return err
	}
	out := rc.out
	topo := rc.topo

	sockets := 0
	for _, n := range c.Nodes() {
		sockets += n.Sockets()
	}
	fmt.Fprintf(out, "booted %s: %d supernodes, %d sockets, %d TCCluster links\n",
		topo.Name(), c.N(), sockets, len(c.ExternalLinks()))
	fmt.Fprintf(out, "topology: diameter %d hops, avg %.2f, max %d address intervals/node\n\n",
		topo.Diameter(), topo.AvgHops(), topo.MaxIntervals())

	world, err := c.NewWorld(tccluster.DefaultMPIConfig())
	if err != nil {
		return err
	}
	// Completion callbacks run on each rank's partition, so the finish
	// time is the max over node-local clocks (kept with a CAS) rather
	// than a read of the global clock mid-window.
	timeAll := func(name string, op func(rank int, done func(error))) error {
		start := c.Now()
		var pending atomic.Int64
		pending.Store(int64(c.N()))
		var finishPs atomic.Int64
		for r := 0; r < c.N(); r++ {
			r := r
			op(r, func(err error) {
				if rc.saveErr(err) {
					return
				}
				t := int64(c.Node(r).Now())
				for {
					cur := finishPs.Load()
					if t <= cur || finishPs.CompareAndSwap(cur, t) {
						break
					}
				}
				pending.Add(-1)
			})
		}
		c.Run()
		if err := rc.failed(); err != nil {
			return err
		}
		if pending.Load() != 0 {
			return fmt.Errorf("%s never completed", name)
		}
		finish := tccluster.Time(finishPs.Load())
		fmt.Fprintf(out, "%-24s %8.2f us\n", name, (finish - start).Micros())
		return nil
	}
	if err := timeAll(fmt.Sprintf("barrier (%d ranks)", c.N()), func(r int, done func(error)) {
		world.Rank(r).Barrier(done)
	}); err != nil {
		return err
	}
	vec := make([]float64, vecLen)
	if err := timeAll(fmt.Sprintf("allreduce %d doubles", vecLen), func(r int, done func(error)) {
		world.Rank(r).Allreduce(vec, tccluster.Sum, func(_ []float64, err error) { done(err) })
	}); err != nil {
		return err
	}
	if err := timeAll(fmt.Sprintf("ring allreduce %d", vecLen), func(r int, done func(error)) {
		world.Rank(r).AllreduceRing(vec, tccluster.Sum, func(_ []float64, err error) { done(err) })
	}); err != nil {
		return err
	}
	payload := make([]byte, bcastBytes)
	if err := timeAll("bcast "+stats.FormatSize(float64(bcastBytes)), func(r int, done func(error)) {
		var in []byte
		if r == 0 {
			in = payload
		}
		world.Rank(r).Bcast(0, in, func(_ []byte, err error) { done(err) })
	}); err != nil {
		return err
	}

	// Traffic patterns over the same fabric.
	if len(traffic) > 0 {
		fmt.Fprintln(out)
		for _, t := range traffic {
			pat, err := t.pattern(rc.s.Topology)
			if err != nil {
				return err
			}
			bytesPer := t.BytesPerFlow
			if bytesPer <= 0 {
				bytesPer = 16 << 10
			}
			res, err := workload.Run(c.Cluster, pat, t.flows(), bytesPer)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, res)
		}
	}

	// Fabric accounting.
	var pkts, bytes, retries uint64
	for _, l := range c.ExternalLinks() {
		a, b := l.A().Stats(), l.B().Stats()
		pkts += a.PktsSent + b.PktsSent
		bytes += a.BytesSent + b.BytesSent
		retries += a.Retries + b.Retries
	}
	fmt.Fprintf(out, "\nfabric totals: %d packets, %d KB on the wire, %d retries\n",
		pkts, bytes>>10, retries)
	if err := c.CheckQuiescent(); err != nil {
		return fmt.Errorf("fabric not quiescent after the run: %w", err)
	}
	fmt.Fprintln(out, "fabric quiescent: all credits returned, no orphans, no leaks")
	return nil
}
