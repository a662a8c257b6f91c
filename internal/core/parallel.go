package core

import (
	"fmt"

	"repro/internal/errs"
	"repro/internal/ht"
	"repro/internal/sim"
	"repro/internal/trace"
)

// crossLatency is the minimum virtual time a packet spends crossing one
// external link: cable flight plus serialization of the smallest (4-byte)
// HT packet at the link's trained width and clock. It is the lookahead a
// conservative window can rely on — nothing crosses the cut faster, so
// events inside a window of this width cannot be affected by the other
// side of the link.
func crossLatency(l *ht.Link) sim.Time {
	if l.State() != ht.StateActive || l.Width() == 0 {
		// Untrained or downed link: only the wire delay is guaranteed
		// (serialization time is undefined at width 0).
		return l.FlightTime()
	}
	return l.FlightTime() + l.SerializationTime(4)
}

// setupParallel builds the cluster's run loop. A serial cluster gets a
// one-partition loop over the boot engine and nothing else. Otherwise
// it splits the booted cluster into cfg.Parallel partitions,
// each with its own event engine, packet pool, and trace shard, joined
// by a conservative windowed barrier (sim.Parallel). The partition map
// is a greedy graph-cut over the external-link graph
// (PartitionGraph.Assign); the executor's lookahead is the fastest
// cross-partition link.
//
// It runs after firmware boot: construction and boot happen on a single
// engine exactly as in serial mode, so the boot sequence — including its
// trace — is bit-identical to a serial run. Only then are components
// rebound onto partition engines, all warped to the boot end time.
func (c *Cluster) setupParallel() error {
	p := min(c.cfg.Parallel, len(c.machines))
	if p < 2 {
		// The lookahead bounds nothing with a single partition; any
		// positive value does.
		c.engs = []*sim.Engine{c.eng}
		c.part = make([]int, len(c.machines))
		runner, err := sim.NewParallel(c.engs, [][]*sim.Mailbox{nil}, sim.Millisecond)
		c.runner = runner
		return err
	}

	// Reject zero-lookahead interconnects before deriving partitions:
	// conservative windows advance by at least the smallest external-link
	// latency, so a zero-latency cable would livelock the barrier no
	// matter how the nodes end up grouped.
	for i, l := range c.extLinks {
		if crossLatency(l) <= 0 {
			return fmt.Errorf("core: external link %d (node%d<->node%d) has zero latency, so a conservative parallel window can never advance: %w",
				i, c.extEnds[i][0], c.extEnds[i][1], errs.ErrDeadlockTopology)
		}
	}

	// Derive the partition map from the external-link graph: edge
	// affinity is inverse link latency (cutting a slow link costs
	// little — its latency buys window width), node weight the node's
	// core count as an event-rate proxy. The partition map never
	// affects simulation results, only how they are computed; the
	// parallel-vs-serial determinism gates prove it.
	n := len(c.machines)
	graph := PartitionGraph{Nodes: n, NodeW: make([]float64, n)}
	for i, m := range c.machines {
		w := 0
		if m != nil {
			for _, proc := range m.Procs {
				w += len(proc.Cores)
			}
		}
		graph.NodeW[i] = float64(w) // zero falls back to unit weight
	}
	for i, l := range c.extLinks {
		lat := crossLatency(l)
		graph.Edges = append(graph.Edges, PartitionEdge{
			A: c.extEnds[i][0], B: c.extEnds[i][1], W: 1 / lat.Nanos(),
		})
	}
	assign, err := graph.Assign(p)
	if err != nil {
		return err
	}
	c.part = assign

	// The lookahead is the fastest link crossing the cut; the cut
	// weight sums the affinity of every crossing link.
	look := sim.Time(0)
	cutLinks := 0
	cutWeight := 0.0
	for i, l := range c.extLinks {
		if c.part[c.extEnds[i][0]] == c.part[c.extEnds[i][1]] {
			continue
		}
		lat := crossLatency(l)
		cutLinks++
		cutWeight += 1 / lat.Nanos()
		if look == 0 || lat < look {
			look = lat
		}
	}
	if look == 0 {
		// No link crosses a partition cut (disconnected topology): any
		// window width is conservative.
		look = sim.Millisecond
	}

	bootEnd := c.eng.Now()
	c.engs = make([]*sim.Engine, p)
	c.engs[0] = c.eng // partition 0 keeps the boot engine and its history
	for i := 1; i < p; i++ {
		c.engs[i] = sim.NewEngine()
		c.engs[i].WarpTo(bootEnd)
	}

	// One packet pool per partition keeps the link transfer path
	// allocation-free without sharing free lists across goroutines.
	// Packets that terminate away from their home pool are exiled and
	// repatriated at the barrier, when every worker is parked.
	pools := make([]*ht.PacketPool, p)
	c.exiled = make([][]*ht.Packet, p)
	for i := range pools {
		pools[i] = &ht.PacketPool{}
	}
	if c.cfg.Tracer != nil {
		c.shards = trace.NewShards(c.cfg.Tracer, p)
	}
	shard := func(pi int) trace.Tracer {
		if c.shards == nil {
			return nil
		}
		return c.shards.Shard(pi)
	}

	// Migrate every component onto its partition's engine and shard.
	for i, m := range c.machines {
		pi := c.part[i]
		eng := c.engs[pi]
		m.Eng = eng
		if c.shards != nil {
			m.SetTracer(shard(pi), i)
		}
		for _, proc := range m.Procs {
			proc.NB.SetEngine(eng)
			proc.NB.SetPool(pools[pi])
			exil := &c.exiled[pi]
			proc.NB.SetExile(func(pkt *ht.Packet) { *exil = append(*exil, pkt) })
			if c.shards != nil {
				proc.NB.SetTracer(shard(pi), i)
			}
			for _, cr := range proc.Cores {
				cr.SetEngine(eng)
			}
		}
		for _, l := range c.nodeLinks[i] {
			l.Rebind(eng)
		}
		c.flashes[i].SetEngine(eng)
	}

	// External links: intra-partition links just rebind; links that cross
	// a cut split into two half-links exchanging events through SPSC
	// mailboxes the coordinator flips at window boundaries.
	inboxes := make([][]*sim.Mailbox, p)
	for i, l := range c.extLinks {
		pa, pb := c.part[c.extEnds[i][0]], c.part[c.extEnds[i][1]]
		if pa == pb {
			l.Rebind(c.engs[pa])
			if c.shards != nil {
				l.SetTracer(shard(pa), i)
			}
			continue
		}
		// Mailbox labels feed the profiler's cross-partition traffic
		// matrix: toA carries events pb publishes into pa, and vice versa.
		toA, toB := &sim.Mailbox{From: pb, To: pa}, &sim.Mailbox{From: pa, To: pb}
		inboxes[pa] = append(inboxes[pa], toA)
		inboxes[pb] = append(inboxes[pb], toB)
		l.Split(c.engs[pa], c.engs[pb], toA, toB, shard(pa), shard(pb))
	}

	runner, err := sim.NewParallel(c.engs, inboxes, look)
	if err != nil {
		return err
	}
	if pr := c.cfg.Profiler; pr != nil {
		st := sim.NewParallelStats(p)
		st.SetCut(cutLinks, cutWeight)
		runner.SetStats(st)
		pr.SetParallelStats(st)
	}
	runner.SetBarrierHook(func() {
		if c.shards != nil {
			c.shards.Merge()
		}
		for pi := range c.exiled {
			for j, pkt := range c.exiled[pi] {
				pkt.Release()
				c.exiled[pi][j] = nil
			}
			c.exiled[pi] = c.exiled[pi][:0]
		}
	})
	c.runner = runner
	return nil
}

// Partitions returns the number of worker partitions, 1 on serial runs.
func (c *Cluster) Partitions() int { return len(c.engs) }

// Partition returns the partition index owning node i (0 on serial runs).
func (c *Cluster) Partition(i int) int { return c.part[i] }

// Lookahead returns the conservative window width of a parallel run, or
// 0 on serial runs.
func (c *Cluster) Lookahead() sim.Time {
	if len(c.engs) == 1 {
		return 0
	}
	return c.runner.Lookahead()
}

// EngineFor returns the engine that executes node i's events. Layers
// that schedule work against a specific node (kernel pollers, message
// rings) must use this, not Engine, so their events land on the
// partition that owns the node.
func (c *Cluster) EngineFor(i int) *sim.Engine { return c.engs[c.part[i]] }

// TracerFor returns the tracer node i's partition may emit into from a
// worker goroutine: its trace shard on parallel runs, the base tracer
// otherwise. Nil when tracing is disabled.
func (c *Cluster) TracerFor(i int) trace.Tracer {
	if c.shards == nil {
		return c.cfg.Tracer
	}
	return c.shards.Shard(c.part[i])
}

// EventsFired returns the total number of simulation events executed
// across all partitions.
func (c *Cluster) EventsFired() uint64 { return c.runner.Fired() }
