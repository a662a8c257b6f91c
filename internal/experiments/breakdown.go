package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

// LatencyBreakdown (E17, extension) decomposes the 64-byte one-way
// store+poll latency into its pipeline components, measured with event
// hooks at each stage boundary of one real packet: where the ~222 ns of
// Fig. 7 actually go. The receive-side poll adds a phase-dependent 0..1
// poll periods on top (E14 characterizes that distribution).
func LatencyBreakdown() (*stats.Table, error) {
	c, _, err := buildPair(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	srcNode := c.Node(0)
	src := srcNode.Core()
	dst := c.Node(1)

	// Stage hooks fire on the partition that executes each stage: tx and
	// issue on the sender's, rx and landing on the receiver's. Each hook
	// writes its own variable, read only after the run drains.
	var issued, landed sim.Time
	var wire linkStages
	link := c.ExternalLinks()[0]
	link.SetTracer(&wire, 0)
	dstNB := dst.Machine().Procs[0].NB
	watch := dstNB.WatchWrites(0, ^uint64(0), func(uint64, int) { landed = dst.Now() })

	start := c.Now()
	src.StoreBlock(dst.MemBase()+8<<20, make([]byte, 64), func(err error) {
		if err == nil {
			issued = srcNode.Now()
		}
	})
	c.Run()
	link.SetTracer(nil, 0)
	dstNB.Unwatch(watch)
	txStart, rxAt := wire.tx, wire.rx
	if issued == 0 || txStart == 0 || rxAt == 0 || landed == 0 {
		return nil, fmt.Errorf("breakdown: missing stage timestamps")
	}

	// The poll-detect cost: an uncached read of the flag line, averaged
	// (the E14 distribution spans one poll period).
	pollOnce := func() (sim.Time, error) {
		t0 := c.Now()
		var t1 sim.Time
		dst.Core().Load(dst.MemBase()+8<<20, 8, func(_ []byte, err error) {
			if err == nil {
				t1 = dst.Now()
			}
		})
		c.Run()
		if t1 == 0 {
			return 0, fmt.Errorf("breakdown: poll read failed")
		}
		return t1 - t0, nil
	}
	pollCost, err := pollOnce()
	if err != nil {
		return nil, err
	}

	t := &stats.Table{
		Title:   "E17 — 64B one-way latency breakdown (HT800 x16)",
		Columns: []string{"stage", "ns", "mechanism"},
	}
	row := func(name string, d sim.Time, what string) {
		t.AddRow(name, fmt.Sprintf("%.1f", d.Nanos()), what)
	}
	row("store issue + WC fill", issued-start, "8 x 64-bit stores into one WC buffer")
	row("SRQ/XBar to link", txStart-issued, "system request queue + crossbar")
	row("serialization + flight", rxAt-txStart, "72 wire bytes at 3.2 GB/s + cable")
	row("rx XBar + IO bridge + DRAM", landed-rxAt, "ncHT->cHT conversion + memory write")
	row("poll detect (min)", pollCost, "one uncached DRAM read + pipeline")
	row("TOTAL (min)", landed-start+pollCost, "matches Fig.7's floor; +0..97ns poll phase")
	return t, nil
}

// linkStages is a link tracer keeping the first serialization start
// (KindPacketSent, on the sender's partition) and the first delivery
// (KindPacketDelivered, on the receiver's) of the traced link.
type linkStages struct{ tx, rx sim.Time }

func (s *linkStages) Emit(ev trace.Event) {
	switch {
	case ev.Kind == trace.KindPacketSent && s.tx == 0:
		s.tx = ev.At
	case ev.Kind == trace.KindPacketDelivered && s.rx == 0:
		s.rx = ev.At
	}
}

// SupernodeTransit (E18, extension) measures remote-store latency and
// bandwidth from each socket of a 4-socket supernode: traffic from
// deeper sockets transits the board's internal coherent chain before
// reaching the external TCCluster link, adding one on-board hop each.
func SupernodeTransit() (*stats.Table, error) {
	topo := mustChain(2)
	cfg := core.DefaultConfig()
	cfg.SocketsPerNode = 4
	cfg.Parallel = parallel
	c, err := core.New(topo, cfg)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "E18 — per-socket transit cost inside a 4-socket supernode",
		Columns: []string{"source socket", "64B land ns", "64KB stream MB/s"},
	}
	dst := c.Node(1)
	dstNB := dst.Machine().Procs[0].NB
	for s := 0; s < 4; s++ {
		var landed sim.Time
		watch := dstNB.WatchWrites(0, ^uint64(0), func(uint64, int) {
			if landed == 0 {
				landed = dst.Now()
			}
		})
		start := c.Now()
		srcNode := c.Node(0)
		src := srcNode.CoreAt(s, 0)
		src.StoreBlock(dst.MemBase()+8<<20, make([]byte, 64), func(error) {})
		c.Run()
		dstNB.Unwatch(watch)
		if landed == 0 {
			return nil, fmt.Errorf("socket %d: store never landed", s)
		}
		lat := landed - start

		stream := make([]byte, 64<<10)
		sStart := c.Now()
		var finish sim.Time
		src.StoreBlock(dst.MemBase()+16<<20, stream, func(err error) {
			if err != nil {
				return
			}
			src.Sfence(func() { finish = srcNode.Now() })
		})
		c.Run()
		if finish == 0 {
			return nil, fmt.Errorf("socket %d: stream never finished", s)
		}
		bw := float64(len(stream)) / float64(finish-sStart) * 1e12 / 1e6
		t.AddRow(fmt.Sprintf("%d", s),
			fmt.Sprintf("%.0f", lat.Nanos()),
			fmt.Sprintf("%.0f", bw))
	}
	return t, nil
}

func mustChain(n int) *topology.Topology {
	topo, err := topology.Chain(n)
	if err != nil {
		panic(err)
	}
	return topo
}
