package experiments

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/coherency"
	"repro/internal/core"
	"repro/internal/ht"
	"repro/internal/mpi"
	"repro/internal/msg"
	"repro/internal/nic"
	"repro/internal/pgas"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// HopLatency (E3) measures one-way store-landing latency at increasing
// hop counts along a chain, reproducing the paper's numactl-based
// multi-hop measurement: each hop adds <50 ns.
func HopLatency(maxHops int) (*stats.Table, error) {
	c, _, err := buildChain(maxHops+1, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "E3 — per-hop latency adder (paper: <50ns per hop)",
		Columns: []string{"hops", "one-way ns", "adder ns"},
	}
	var prev sim.Time
	for hop := 1; hop <= maxHops; hop++ {
		dst := c.Node(hop)
		var land sim.Time
		nbr := dst.Machine().Procs[0].NB
		id := nbr.WatchWrites(0, ^uint64(0), func(uint64, int) { land = dst.Now() })
		start := c.Now()
		c.Node(0).Core().StoreBlock(dst.MemBase()+8<<20, make([]byte, 64), func(error) {})
		c.Run()
		nbr.Unwatch(id)
		if land == 0 {
			return nil, fmt.Errorf("hop %d: store never landed", hop)
		}
		lat := land - start
		adder := lat - prev
		if hop == 1 {
			t.AddRow("1", fmt.Sprintf("%.0f", lat.Nanos()), "-")
		} else {
			t.AddRow(fmt.Sprintf("%d", hop), fmt.Sprintf("%.0f", lat.Nanos()),
				fmt.Sprintf("%.0f", adder.Nanos()))
		}
		prev = lat
	}
	return t, nil
}

// BaselineComparison (E4) races TCCluster against the NIC models at the
// paper's three reference sizes.
func BaselineComparison() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "E4 — TCCluster vs traditional interconnects",
		Columns: []string{"interconnect", "latency 64B", "bw 64B", "bw 1KB", "bw 1MB"},
	}

	// TCCluster, measured.
	c, _, err := buildPair(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	half, err := pingPong(c, 64, 10)
	if err != nil {
		return nil, err
	}
	bw := map[int]float64{}
	for _, size := range []int{64, 1024, 1 << 20} {
		cc, _, err := buildPair(core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		v, err := streamWeak(cc, 0, 1, size, itersFor(size, 256<<10))
		if err != nil {
			return nil, err
		}
		bw[size] = v
	}
	t.AddRow("TCCluster (HT800x16)", fmt.Sprintf("%.0f ns", half.Nanos()),
		stats.FormatMBs(bw[64]), stats.FormatMBs(bw[1024]), stats.FormatMBs(bw[1<<20]))

	for _, par := range []nic.Params{nic.ConnectX(), nic.TenGigE(), nic.GigE()} {
		t.AddRow(par.Name,
			fmt.Sprintf("%.0f ns", par.Latency(64).Nanos()),
			stats.FormatMBs(par.Bandwidth(64)),
			stats.FormatMBs(par.Bandwidth(1024)),
			stats.FormatMBs(par.Bandwidth(1<<20)))
	}

	ibLat := nic.ConnectX().Latency(64)
	t.AddRow("TCC advantage vs IB",
		fmt.Sprintf("%.1fx", float64(ibLat)/float64(half)),
		fmt.Sprintf("%.1fx", bw[64]/nic.ConnectX().Bandwidth(64)),
		fmt.Sprintf("%.1fx", bw[1024]/nic.ConnectX().Bandwidth(1024)),
		fmt.Sprintf("%.1fx", bw[1<<20]/nic.ConnectX().Bandwidth(1<<20)))
	return t, nil
}

// CoherencyScaling (E5) quantifies the paper's §III argument: broadcast
// MESI probes grow linearly with node count and the completion waits for
// the farthest responder, while a TCCluster message costs the same at
// any scale.
func CoherencyScaling(nodeCounts []int, tccMessageNs float64) *stats.Table {
	if nodeCounts == nil {
		nodeCounts = []int{2, 4, 8, 16, 32, 64}
	}
	t := &stats.Table{
		Title: "E5 — coherent-SMP probe cost vs TCCluster messaging",
		Columns: []string{"nodes", "probes/write", "probe bytes/64B line",
			"write latency ns", "TCC msg ns", "coherent overhead"},
	}
	for _, n := range nodeCounts {
		// Sockets sit on a mesh as square as possible; probe gathering
		// waits on the mesh diameter.
		w := 1
		for w*w < n {
			w++
		}
		h := (n + w - 1) / w
		m, err := topology.Mesh(w, h)
		if err != nil {
			continue
		}
		dom := coherency.NewDomain(n, coherency.DefaultParams(), func(a, b int) int {
			if a >= m.N() || b >= m.N() {
				return 1
			}
			return m.HopCount(a, b)
		})
		line := uint64(0x1000)
		for peer := 0; peer < n; peer++ {
			dom.Read(peer, line) // everyone shares the line
		}
		res := dom.Write(0, line)
		// A probe is an 8-byte request plus a 4-byte response per peer.
		probeBytes := res.ProbesSent * 12
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", res.ProbesSent),
			fmt.Sprintf("%d", probeBytes),
			fmt.Sprintf("%.0f", res.Latency.Nanos()),
			fmt.Sprintf("%.0f", tccMessageNs),
			fmt.Sprintf("%.1fx", res.Latency.Nanos()/tccMessageNs),
		)
	}
	return t
}

// WCAblation (E8) sweeps the fence interval from every line to never,
// plus the no-write-combining (UC) path, at a fixed message size.
func WCAblation(size int) (*stats.Table, error) {
	if size == 0 {
		size = 64 << 10
	}
	t := &stats.Table{
		Title:   "E8 — write combining / fence-interval ablation (64KB streams)",
		Columns: []string{"mechanism", "MB/s", "vs weak"},
	}
	iters := itersFor(size, 256<<10)

	c, _, err := buildPair(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	weak, err := streamWeak(c, 0, 1, size, iters)
	if err != nil {
		return nil, err
	}

	rows := []struct {
		name  string
		value float64
	}{{"WC, weakly ordered (fence at end)", weak}}

	for _, every := range []int{16, 8, 4, 2, 1} {
		cc, _, err := buildPair(core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		bw, err := streamOrdered(cc, 0, 1, size, iters, every)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("WC, fence every %d lines", every)
		if every == 1 {
			name = "WC, strictly ordered (fence/line)"
		}
		rows = append(rows, struct {
			name  string
			value float64
		}{name, bw})
	}

	cc, _, err := buildPair(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	uc, err := streamUC(cc, 0, 1, size, itersFor(size, 64<<10))
	if err != nil {
		return nil, err
	}
	rows = append(rows, struct {
		name  string
		value float64
	}{"no write combining (UC stores)", uc})

	for _, r := range rows {
		t.AddRow(r.name, fmt.Sprintf("%.0f", r.value/1e6), fmt.Sprintf("%.2f", r.value/weak))
	}
	return t, nil
}

// WCBufferCount (E16, extension) sweeps the number of write-combining
// buffers at two link speeds. At the prototype's HT800 even one buffer
// keeps the slow link fed; at the processor-limit HT2600 the paper's
// "eight write combining buffers [that] support a very high data rate"
// (§VI) become load-bearing — fewer buffers cannot cover the flush
// round trip and bandwidth collapses.
func WCBufferCount() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "E16 — write-combining buffer count vs streaming bandwidth (64KB weak)",
		Columns: []string{"WC buffers", "HT800 MB/s", "HT2600 MB/s", "HT2600 vs 8 buffers"},
	}
	type row struct {
		n          int
		slow, fast float64
	}
	var rows []row
	var ref float64
	for _, nBuf := range []int{1, 2, 4, 8, 16} {
		measure := func(speed ht.Speed) (float64, error) {
			cfg := core.DefaultConfig()
			cfg.CPUParams.WCBuffers = nBuf
			cfg.LinkSpeed = speed
			c, _, err := buildPair(cfg)
			if err != nil {
				return 0, err
			}
			return streamWeak(c, 0, 1, 64<<10, 4)
		}
		slow, err := measure(ht.HT800)
		if err != nil {
			return nil, err
		}
		fast, err := measure(ht.HT2600)
		if err != nil {
			return nil, err
		}
		if nBuf == 8 {
			ref = fast
		}
		rows = append(rows, row{n: nBuf, slow: slow, fast: fast})
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.n),
			fmt.Sprintf("%.0f", r.slow/1e6),
			fmt.Sprintf("%.0f", r.fast/1e6),
			fmt.Sprintf("%.2f", r.fast/ref))
	}
	return t, nil
}

// LinkSpeedSweep (E9) rebuilds the pair at each link clock and width:
// the §V claim that retraining raises the cold-reset 400 Mbit/s link to
// 4.8 Gbit/s, and what the paper's cable limit (HT800) costs.
func LinkSpeedSweep() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "E9 — link speed/width sweep (64KB weak streams)",
		Columns: []string{"link", "Gbit/s/lane", "raw GB/s", "achieved MB/s", "64B store-land ns"},
	}
	for _, width := range []int{8, 16} {
		for _, speed := range []ht.Speed{ht.HT200, ht.HT400, ht.HT800, ht.HT1600, ht.HT2400, ht.HT2600} {
			cfg := core.DefaultConfig()
			cfg.LinkSpeed = speed
			cfg.LinkWidth = width
			c, _, err := buildPair(cfg)
			if err != nil {
				return nil, err
			}
			bw, err := streamWeak(c, 0, 1, 64<<10, 4)
			if err != nil {
				return nil, err
			}
			// One-way 64B land time.
			var land sim.Time
			dst := c.Node(1)
			dst.Machine().Procs[0].NB.WatchWrites(0, ^uint64(0), func(uint64, int) { land = dst.Now() })
			start := c.Now()
			c.Node(0).Core().StoreBlock(dst.MemBase()+9<<20, make([]byte, 64), func(error) {})
			c.Run()
			raw := float64(width) * speed.GbitPerLane() / 8
			t.AddRow(
				fmt.Sprintf("%vx%d", speed, width),
				fmt.Sprintf("%.1f", speed.GbitPerLane()),
				fmt.Sprintf("%.1f", raw),
				fmt.Sprintf("%.0f", bw/1e6),
				fmt.Sprintf("%.0f", (land-start).Nanos()),
			)
		}
	}
	return t, nil
}

// EndpointScaling (E7) counts the receive-side footprint of message
// endpoints (one 4 KB ring each plus a flow-control page at the sender)
// and finds the exhaustion point of the UC window — the paper's claim
// that 4 KB rings "support hundreds of endpoints".
func EndpointScaling(counts []int) (*stats.Table, error) {
	if counts == nil {
		counts = []int{16, 64, 128, 256, 448}
	}
	t := &stats.Table{
		Title:   "E7 — endpoint scaling (4KB ring per endpoint)",
		Columns: []string{"endpoints", "rx UC bytes", "per endpoint", "opened OK"},
	}
	for _, want := range counts {
		c, os, err := buildPair(core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		opened := 0
		for i := 0; i < want; i++ {
			if _, _, err := msg.Open(os, 1, 0, msg.DefaultParams()); err != nil {
				break
			}
			opened++
		}
		_ = c
		t.AddRow(fmt.Sprintf("%d", want), fmt.Sprintf("%d", os.Kernel(0).UCUsed()),
			"4KB ring + 4KB fc page", fmt.Sprintf("%v", opened == want))
	}

	// Exhaustion point with the default 4MB UC window.
	c, os, err := buildPair(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	_ = c
	exhausted := 0
	for {
		if _, _, err := msg.Open(os, 1, 0, msg.DefaultParams()); err != nil {
			break
		}
		exhausted++
		if exhausted > 4096 {
			break
		}
	}
	t.AddRow("exhaustion", fmt.Sprintf("%d endpoints fit a %dMB UC window",
		exhausted, core.DefaultUCWindow>>20), "", "")
	return t, nil
}

// MPICollectives (E11) times the middleware the paper names as future
// work: barrier, 1KB broadcast and 8-double allreduce at several node
// counts.
func MPICollectives(nodeCounts []int) (*stats.Table, error) {
	if nodeCounts == nil {
		nodeCounts = []int{2, 4, 8}
	}
	t := &stats.Table{
		Title:   "E11 — MPI collectives over TCCluster (virtual time)",
		Columns: []string{"nodes", "barrier us", "bcast 1KB us", "allreduce 8f us"},
	}
	for _, n := range nodeCounts {
		c, os, err := buildChain(n, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		w, err := mpi.NewWorld(os, mpi.DefaultConfig())
		if err != nil {
			return nil, err
		}
		barrier, err := timeCollective(c, n, func(r int, done func(error)) {
			w.Rank(r).Barrier(done)
		})
		if err != nil {
			return nil, err
		}
		payload := make([]byte, 1024)
		bcast, err := timeCollective(c, n, func(r int, done func(error)) {
			var in []byte
			if r == 0 {
				in = payload
			}
			w.Rank(r).Bcast(0, in, func(_ []byte, err error) { done(err) })
		})
		if err != nil {
			return nil, err
		}
		vec := make([]float64, 8)
		allred, err := timeCollective(c, n, func(r int, done func(error)) {
			w.Rank(r).Allreduce(vec, mpi.Sum, func(_ []float64, err error) { done(err) })
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.2f", barrier.Micros()),
			fmt.Sprintf("%.2f", bcast.Micros()),
			fmt.Sprintf("%.2f", allred.Micros()))
	}
	return t, nil
}

func timeCollective(c *core.Cluster, n int, op func(rank int, done func(error))) (sim.Time, error) {
	// Rank completions fire on their own partitions during parallel runs:
	// counters are atomic, and the finish time is the max of each rank's
	// local completion clock (the last arrival defines the collective).
	start := c.Now()
	var finish atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	var pending atomic.Int64
	pending.Store(int64(n))
	for r := 0; r < n; r++ {
		node := c.Node(r)
		op(r, func(err error) {
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
			now := int64(node.Now())
			for {
				cur := finish.Load()
				if now <= cur || finish.CompareAndSwap(cur, now) {
					break
				}
			}
			pending.Add(-1)
		})
	}
	c.Run()
	if firstErr != nil {
		return 0, firstErr
	}
	if pending.Load() != 0 {
		return 0, fmt.Errorf("collective never completed (%d ranks pending)", pending.Load())
	}
	return sim.Time(finish.Load()) - start, nil
}

// AllreduceAblation (E15, extension) races the binomial-tree allreduce
// against the bandwidth-optimal ring variant across vector sizes: the
// latency-vs-bandwidth crossover every collective library navigates,
// here on TCCluster's sub-microsecond fabric.
func AllreduceAblation(nodes int) (*stats.Table, error) {
	if nodes == 0 {
		nodes = 8
	}
	t := &stats.Table{
		Title:   fmt.Sprintf("E15 — allreduce algorithm ablation (%d nodes)", nodes),
		Columns: []string{"vector doubles", "tree us", "ring us", "winner"},
	}
	c, os, err := buildChain(nodes, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	w, err := mpi.NewWorld(os, mpi.DefaultConfig())
	if err != nil {
		return nil, err
	}
	for _, vecLen := range []int{8, 64, 512, 4096} {
		vec := make([]float64, vecLen)
		tree, err := timeCollective(c, nodes, func(r int, done func(error)) {
			w.Rank(r).Allreduce(vec, mpi.Sum, func(_ []float64, err error) { done(err) })
		})
		if err != nil {
			return nil, err
		}
		ring, err := timeCollective(c, nodes, func(r int, done func(error)) {
			w.Rank(r).AllreduceRing(vec, mpi.Sum, func(_ []float64, err error) { done(err) })
		})
		if err != nil {
			return nil, err
		}
		winner := "tree"
		if ring < tree {
			winner = "ring"
		}
		t.AddRow(fmt.Sprintf("%d", vecLen),
			fmt.Sprintf("%.2f", tree.Micros()),
			fmt.Sprintf("%.2f", ring.Micros()),
			winner)
	}
	return t, nil
}

// PGASLatencies (E11b) times the PGAS layer: strict put, software
// barrier, and a served remote get.
func PGASLatencies() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "E11b — PGAS primitives over TCCluster (virtual time)",
		Columns: []string{"primitive", "latency"},
	}
	c, os, err := buildPair(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	sp, err := pgas.New(os, pgas.DefaultConfig())
	if err != nil {
		return nil, err
	}
	seg := sp.Size() / 2

	start := c.Now()
	sp.PutStrict(0, seg+64, make([]byte, 64), func(error) {})
	c.Run()
	t.AddRow("PutStrict 64B (issue+fence)", fmt.Sprintf("%.0f ns", (c.Now()-start).Nanos()))

	b, err := timeCollective(c, 2, func(r int, done func(error)) { sp.Barrier(r, done) })
	if err != nil {
		return nil, err
	}
	t.AddRow("Barrier (2 nodes, remote-store)", fmt.Sprintf("%.2f us", b.Micros()))

	sp.Serve(1)
	start = c.Now()
	var gotAt sim.Time
	getter := c.Node(0)
	sp.Get(0, seg+64, 64, func(_ []byte, err error) {
		if err == nil {
			gotAt = getter.Now()
		}
	})
	c.RunFor(sim.Millisecond)
	sp.StopServing(1)
	c.Run()
	if gotAt == 0 {
		return nil, fmt.Errorf("pgas get never completed")
	}
	t.AddRow("Get 64B (AM round trip)", fmt.Sprintf("%.2f us", (gotAt-start).Micros()))
	return t, nil
}

// AddressMapScaling (E10) validates the §IV.D claims at scale without
// instantiating hardware: interval routability, per-node MMIO register
// demand, and the 48-bit / 256 TB global-space bound.
func AddressMapScaling() *stats.Table {
	t := &stats.Table{
		Title: "E10 — address-map construction at scale (8GB per node)",
		Columns: []string{"topology", "nodes", "max intervals", "routable(<=7)",
			"deadlock-free", "global space", "fits 48-bit"},
	}
	const memPerNode = 8 << 30
	add := func(topo *topology.Topology, checkDeadlock bool) {
		maxIv := topo.MaxIntervals()
		routable := topo.CheckIntervalRoutable(7) == nil
		dl := "-"
		if checkDeadlock {
			ok, err := topo.DeadlockFree()
			if err != nil {
				dl = "error"
			} else {
				dl = fmt.Sprintf("%v", ok)
			}
		}
		space := uint64(topo.N()) * memPerNode
		spaceStr := fmt.Sprintf("%dTB", space>>40)
		if space < 1<<40 {
			spaceStr = fmt.Sprintf("%dGB", space>>30)
		}
		t.AddRow(topo.Name(), fmt.Sprintf("%d", topo.N()), fmt.Sprintf("%d", maxIv),
			fmt.Sprintf("%v", routable), dl, spaceStr,
			fmt.Sprintf("%v", space <= 1<<48))
	}
	if topo, err := topology.Chain(16); err == nil {
		add(topo, true)
	}
	if topo, err := topology.Mesh(8, 8); err == nil {
		add(topo, true)
	}
	if topo, err := topology.Mesh(16, 16); err == nil {
		add(topo, false)
	}
	if topo, err := topology.Mesh(64, 64); err == nil {
		add(topo, false)
	}
	if topo, err := topology.Torus(8, 8); err == nil {
		add(topo, true)
	}
	if topo, err := topology.Ring(16); err == nil {
		add(topo, true)
	}
	if topo, err := topology.Hypercube(4); err == nil {
		add(topo, true)
	}
	return t
}

// BootTrace (E6) boots the two-board prototype and returns both
// firmware consoles.
func BootTrace() (string, error) {
	c, _, err := buildPair(core.DefaultConfig())
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, n := range c.Nodes() {
		sb.WriteString(n.BootLog().String())
		sb.WriteString("\n")
	}
	links := c.ExternalLinks()
	for i, l := range links {
		fmt.Fprintf(&sb, "TCCluster link %d: %v %v x%d (%.1f Gbit/s/lane), trained %d times\n",
			i, l.Type(), l.Speed(), l.Width(), l.Speed().GbitPerLane(), l.Trainings())
	}
	return sb.String(), nil
}
