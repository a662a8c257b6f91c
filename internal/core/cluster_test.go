package core

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func buildCluster(t *testing.T, topo *topology.Topology, cfg Config) *Cluster {
	t.Helper()
	c, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func chainCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	topo, err := topology.Chain(n)
	if err != nil {
		t.Fatal(err)
	}
	return buildCluster(t, topo, DefaultConfig())
}

func TestPrototypePairBootsAndPassesTraffic(t *testing.T) {
	c := chainCluster(t, 2)
	if c.N() != 2 {
		t.Fatalf("N = %d", c.N())
	}
	for _, n := range c.Nodes() {
		if !n.BootLog().Has("load-os") {
			t.Errorf("node %d boot incomplete:\n%s", n.Index(), n.BootLog())
		}
	}

	src, dst := c.Node(0), c.Node(1)
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	sent := false
	src.Core().StoreBlock(dst.MemBase()+0x1000, payload, func(err error) {
		if err != nil {
			t.Errorf("store: %v", err)
		}
		sent = true
	})
	c.Run()
	if !sent {
		t.Fatal("store never retired")
	}
	got, err := dst.PeekMem(0x1000, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("payload mismatch at destination")
	}
}

func TestChainMultiHopDelivery(t *testing.T) {
	c := chainCluster(t, 4)
	src, dst := c.Node(0), c.Node(3)
	sent := false
	src.Core().StoreBlock(dst.MemBase()+0x40, []byte{0xAA, 1, 2, 3, 4, 5, 6, 7}, func(err error) {
		if err != nil {
			t.Errorf("store: %v", err)
		}
		sent = true
		src.Core().Sfence(func() {})
	})
	c.Run()
	if !sent {
		t.Fatal("store never retired")
	}
	got, err := dst.PeekMem(0x40, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAA {
		t.Errorf("3-hop delivery failed: %v", got)
	}
	// Middle nodes forwarded the packet without bridging it.
	for _, mid := range []int{1, 2} {
		cnt := c.Node(mid).Machine().Procs[0].NB.Counters()
		if cnt.PktsForwarded == 0 {
			t.Errorf("node %d forwarded nothing", mid)
		}
		if cnt.BridgedPackets != 0 {
			t.Errorf("node %d bridged a transit packet", mid)
		}
	}
}

// Per-hop latency adder stays under 50 ns (paper §VI): measured by
// landing the same store at increasing distances along a chain.
func TestChainHopLatencyAdder(t *testing.T) {
	c := chainCluster(t, 5)
	src := c.Node(0)
	var lands []sim.Time
	for hop := 1; hop <= 4; hop++ {
		dst := c.Node(hop)
		var land sim.Time
		dst.Machine().Procs[0].NB.SetWriteHook(func(uint64, int) { land = c.Engine().Now() })
		start := c.Engine().Now()
		done := false
		src.Core().StoreBlock(dst.MemBase()+0x80, make([]byte, 64), func(err error) {
			if err != nil {
				t.Fatalf("store: %v", err)
			}
			done = true
		})
		c.Run()
		if !done || land == 0 {
			t.Fatalf("hop %d: store did not land", hop)
		}
		lands = append(lands, land-start)
		dst.Machine().Procs[0].NB.SetWriteHook(nil)
	}
	for i := 1; i < len(lands); i++ {
		adder := lands[i] - lands[i-1]
		if adder <= 0 || adder >= 50*sim.Nanosecond {
			t.Errorf("hop %d->%d adder = %v, want (0,50ns)", i, i+1, adder)
		}
	}
}

func TestMeshClusterWithSupernodes(t *testing.T) {
	topo, err := topology.Mesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SocketsPerNode = 2 // interior mesh nodes need 4 external links
	c := buildCluster(t, topo, cfg)

	// Corner (0) to corner (8): 4 hops through the mesh.
	src, dst := c.Node(0), c.Node(8)
	sent := false
	src.Core().StoreBlock(dst.MemBase()+0x200, []byte{7, 7, 7, 7, 7, 7, 7, 7}, func(err error) {
		if err != nil {
			t.Errorf("store: %v", err)
		}
		sent = true
		src.Core().Sfence(func() {})
	})
	c.Run()
	if !sent {
		t.Fatal("store never retired")
	}
	got, err := dst.PeekMem(0x200, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Errorf("mesh delivery failed: %v", got)
	}
}

// A 3x3 mesh with single-socket nodes cannot be built: the center node
// needs 4 external links plus a southbridge and the Opteron has only 4.
func TestMeshNeedsSupernodes(t *testing.T) {
	topo, err := topology.Mesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(topo, DefaultConfig()); err == nil {
		t.Fatal("3x3 mesh with 1 socket/node built despite link shortage")
	}
}

func TestAddressSpaceBound(t *testing.T) {
	topo, err := topology.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MemPerNode = 1 << 47 // 2 nodes x 128 TB = 256 TB: at the limit
	if _, err := New(topo, cfg); err != nil {
		t.Errorf("256 TB global space rejected: %v", err)
	}
}

func TestPeekPokeMem(t *testing.T) {
	c := chainCluster(t, 2)
	n := c.Node(1)
	if err := n.PokeMem(0x500, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := n.PeekMem(0x500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[2] != 3 {
		t.Errorf("peek = %v", got)
	}
	if _, err := n.PeekMem(n.MemSize(), 1); err == nil {
		t.Error("peek past end accepted")
	}
}

func TestBidirectionalSimultaneousTraffic(t *testing.T) {
	c := chainCluster(t, 2)
	a, b := c.Node(0), c.Node(1)
	okA, okB := false, false
	a.Core().StoreBlock(b.MemBase()+0x40, bytes.Repeat([]byte{0xA}, 64), func(err error) { okA = err == nil })
	b.Core().StoreBlock(a.MemBase()+0x40, bytes.Repeat([]byte{0xB}, 64), func(err error) { okB = err == nil })
	c.Run()
	if !okA || !okB {
		t.Fatal("bidirectional stores failed")
	}
	gb, _ := b.PeekMem(0x40, 1)
	ga, _ := a.PeekMem(0x40, 1)
	if gb[0] != 0xA || ga[0] != 0xB {
		t.Errorf("cross traffic: a->b=%#x b->a=%#x", gb[0], ga[0])
	}
}

// Inside a supernode the sockets form a coherent domain: a cross-socket
// read completes normally (the response routes by distinct NodeIDs),
// while the same read across a TCCluster link strands — the asymmetry
// at the heart of §IV.A.
func TestSupernodeCrossSocketReadWorksTCCReadStrands(t *testing.T) {
	topo, err := topology.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SocketsPerNode = 2
	c := buildCluster(t, topo, cfg)

	n0 := c.Node(0)
	if n0.Sockets() != 2 {
		t.Fatalf("sockets = %d", n0.Sockets())
	}
	memPerSocket := n0.MemSize() / 2

	// Socket 0 reads from socket 1's memory (same board, coherent).
	if err := n0.PokeMem(memPerSocket+0x40, []byte{0xAB, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	var got []byte
	n0.Machine().Procs[0].NB.CPURead(n0.MemBase()+memPerSocket+0x40, make([]byte, 64), func(d []byte, err error) {
		if err != nil {
			t.Errorf("cross-socket read: %v", err)
			return
		}
		got = d
	})
	c.Run()
	if len(got) == 0 || got[0] != 0xAB {
		t.Fatalf("cross-socket coherent read failed: %v", got)
	}

	// The same hardware read across the TCCluster link strands.
	answered := false
	n0.Machine().Procs[0].NB.CPURead(c.Node(1).MemBase()+0x40, make([]byte, 64), func([]byte, error) {
		answered = true
	})
	c.Run()
	if answered {
		t.Fatal("read across the TCCluster link completed; it must strand")
	}
}

// A lossy cable built through the public config still delivers
// everything, with retries recorded on the external link.
func TestClusterWithLossyCable(t *testing.T) {
	topo, err := topology.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CableErrorRate = 0.1
	c := buildCluster(t, topo, cfg)
	payload := bytes.Repeat([]byte{0x5A}, 4096)
	done := false
	c.Node(0).Core().StoreBlock(c.Node(1).MemBase()+8<<20, payload, func(err error) {
		if err != nil {
			t.Errorf("store: %v", err)
		}
		done = true
	})
	c.Run()
	if !done {
		t.Fatal("transfer never completed")
	}
	got, err := c.Node(1).PeekMem(8<<20, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("lossy link corrupted delivered data")
	}
	if c.ExternalLinks()[0].A().Stats().Retries == 0 {
		t.Error("no retries recorded at 10% error rate")
	}
}

// Quad-core sockets: two cores streaming to the same remote node share
// the socket's link, so each sees roughly half the bandwidth and the
// aggregate stays at the link bound.
func TestMultiCoreLinkContention(t *testing.T) {
	topo, err := topology.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CoresPerSocket = 4
	c := buildCluster(t, topo, cfg)
	n0, n1 := c.Node(0), c.Node(1)
	if n0.CoresPerSocket() != 4 {
		t.Fatalf("cores = %d", n0.CoresPerSocket())
	}

	const size = 64 << 10
	start := c.Engine().Now()
	var t1, t2 sim.Time
	n0.CoreAt(0, 0).StoreBlock(n1.MemBase()+8<<20, make([]byte, size), func(err error) {
		if err != nil {
			t.Errorf("core0: %v", err)
		}
		n0.CoreAt(0, 0).Sfence(func() { t1 = c.Engine().Now() })
	})
	n0.CoreAt(0, 1).StoreBlock(n1.MemBase()+16<<20, make([]byte, size), func(err error) {
		if err != nil {
			t.Errorf("core1: %v", err)
		}
		n0.CoreAt(0, 1).Sfence(func() { t2 = c.Engine().Now() })
	})
	c.Run()
	if t1 == 0 || t2 == 0 {
		t.Fatal("streams never completed")
	}
	last := t1
	if t2 > last {
		last = t2
	}
	aggregate := float64(2*size) / float64(last-start) * 1e12 / 1e9
	// The shared link bounds the aggregate at ~2.83 GB/s: two cores do
	// NOT get 2x.
	if aggregate < 2.2 || aggregate > 3.1 {
		t.Errorf("aggregate = %.2f GB/s, want link-bound ~2.8", aggregate)
	}

	// A single core on an otherwise idle socket gets the full rate.
	c2 := buildCluster(t, topo, cfg)
	start = c2.Engine().Now()
	var tSolo sim.Time
	c2.Node(0).CoreAt(0, 0).StoreBlock(c2.Node(1).MemBase()+8<<20, make([]byte, size), func(err error) {
		c2.Node(0).CoreAt(0, 0).Sfence(func() { tSolo = c2.Engine().Now() })
	})
	c2.Run()
	solo := float64(size) / float64(tSolo-start) * 1e12 / 1e9
	perCore := float64(size) / float64(last-start) * 1e12 / 1e9
	if perCore > 0.75*solo {
		t.Errorf("per-core under contention %.2f GB/s vs solo %.2f — contention must bite", perCore, solo)
	}
}

// Prototype 1's aggregated dual link: 32 lanes doubles the delivered
// bandwidth of the 16-lane cable.
func TestDualLinkAggregation(t *testing.T) {
	measure := func(width int) float64 {
		topo, err := topology.Chain(2)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.LinkWidth = width
		c := buildCluster(t, topo, cfg)
		const size = 64 << 10
		start := c.Engine().Now()
		var finish sim.Time
		c.Node(0).Core().StoreBlock(c.Node(1).MemBase()+8<<20, make([]byte, size), func(err error) {
			if err != nil {
				t.Fatalf("store: %v", err)
			}
			c.Node(0).Core().Sfence(func() { finish = c.Engine().Now() })
		})
		c.Run()
		return float64(size) / float64(finish-start) * 1e12 / 1e9
	}
	single := measure(16)
	dual := measure(32)
	if ratio := dual / single; ratio < 1.7 || ratio > 2.2 {
		t.Errorf("dual/single = %.2f (%.2f vs %.2f GB/s), want ~2x", ratio, dual, single)
	}
}

// After any clean workload the whole fabric must return to its idle
// invariants: credits full, queues empty, no leaked WC buffers or tags.
func TestQuiescenceAfterTraffic(t *testing.T) {
	c := chainCluster(t, 4)
	for i := 0; i < 3; i++ {
		dst := c.Node((i + 1) % 4)
		done := false
		c.Node(i).Core().StoreBlock(dst.MemBase()+8<<20, make([]byte, 4096), func(err error) {
			if err != nil {
				t.Fatalf("store: %v", err)
			}
			c.Node(i).Core().Sfence(func() { done = true })
		})
		c.Run()
		if !done {
			t.Fatal("stream incomplete")
		}
	}
	if err := c.CheckQuiescent(); err != nil {
		t.Fatalf("fabric not quiescent: %v", err)
	}
}

// A deliberately stranded read leaves an outstanding tag, which the
// quiescence checker must catch.
func TestQuiescenceCatchesLeaks(t *testing.T) {
	c := chainCluster(t, 2)
	c.Node(0).Machine().Procs[0].NB.CPURead(c.Node(1).MemBase()+0x40, make([]byte, 64), func([]byte, error) {})
	c.Run()
	if err := c.CheckQuiescent(); err == nil {
		t.Fatal("stranded read not flagged by quiescence check")
	}
}

// Four sockets per board: the firmware's DFS enumerates a 4-deep chain,
// and traffic from the deepest socket transits three coherent hops to
// the external link.
func TestFourSocketSupernode(t *testing.T) {
	topo, err := topology.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SocketsPerNode = 4
	c := buildCluster(t, topo, cfg)
	n0, n1 := c.Node(0), c.Node(1)
	if n0.Sockets() != 4 {
		t.Fatalf("sockets = %d", n0.Sockets())
	}
	ids := map[uint8]bool{}
	for _, p := range n0.Machine().Procs {
		ids[p.NB.NodeID()] = true
	}
	for id := uint8(0); id < 4; id++ {
		if !ids[id] {
			t.Fatalf("NodeID %d never assigned: %v", id, ids)
		}
	}
	// Socket 3 (deepest) writes into the peer board.
	done := false
	n0.CoreOn(3).StoreBlock(n1.MemBase()+8<<20, make([]byte, 64), func(err error) {
		if err != nil {
			t.Fatalf("store: %v", err)
		}
		done = true
	})
	c.Run()
	if !done {
		t.Fatal("store never retired")
	}
	got, err := n1.PeekMem(8<<20, 8)
	if err != nil {
		t.Fatal(err)
	}
	_ = got
	if err := c.CheckQuiescent(); err != nil {
		t.Fatalf("not quiescent: %v", err)
	}
}

// The HT link is full duplex: simultaneous streams in both directions
// each get the full unidirectional rate (2x aggregate).
func TestFullDuplexBandwidth(t *testing.T) {
	measure := func(bidir bool) float64 {
		c := chainCluster(t, 2)
		const size = 32 << 10
		stream := func(from, to int, done *sim.Time) {
			src := c.Node(from).Core()
			base := c.Node(to).MemBase() + 8<<20
			src.StoreBlock(base, make([]byte, size), func(err error) {
				if err != nil {
					t.Fatalf("store: %v", err)
				}
				src.Sfence(func() { *done = c.Engine().Now() })
			})
		}
		start := c.Engine().Now()
		var dA, dB sim.Time
		stream(0, 1, &dA)
		if bidir {
			stream(1, 0, &dB)
		}
		c.Run()
		finish := dA
		bytes := size
		if bidir {
			if dB > finish {
				finish = dB
			}
			bytes *= 2
		}
		return float64(bytes) / float64(finish-start) * 1e12 / 1e9
	}
	uni := measure(false)
	bi := measure(true)
	if ratio := bi / uni; ratio < 1.85 || ratio > 2.1 {
		t.Errorf("bidirectional/unidirectional = %.2f (%.2f vs %.2f GB/s), want ~2x (full duplex)",
			ratio, bi, uni)
	}
}

func TestConfigValidationErrors(t *testing.T) {
	topo, err := topology.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.SocketsPerNode = 9
	if _, err := New(topo, bad); err == nil {
		t.Error("9 sockets per node accepted")
	}
	bad = DefaultConfig()
	bad.CoresPerSocket = 9
	if _, err := New(topo, bad); err == nil {
		t.Error("9 cores per socket accepted")
	}
	bad = DefaultConfig()
	bad.MemPerNode = 100 << 10 // not 16MB granular: firmware must refuse
	if _, err := New(topo, bad); err == nil {
		t.Error("unaligned memory accepted")
	}
	bad = DefaultConfig()
	bad.MemPerNode = 1 << 47
	bigTopo, err := topology.Chain(4) // 4 x 128TB = 512TB > 48-bit
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(bigTopo, bad); err == nil {
		t.Error("512TB global space accepted")
	}
}

// Scale smoke test: an 8x8 mesh of dual-socket supernodes — 64 boards,
// 128 sockets, 224 TCCluster links — boots, routes corner to corner
// (14 hops), and quiesces.
func TestMesh64Boards(t *testing.T) {
	if testing.Short() {
		t.Skip("large fabric build")
	}
	topo, err := topology.Mesh(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SocketsPerNode = 2
	cfg.MemPerNode = 64 << 20 // keep the build light
	cfg.UCWindow = 1 << 20
	c := buildCluster(t, topo, cfg)
	if c.N() != 64 || len(c.ExternalLinks()) != 2*8*7 {
		t.Fatalf("N=%d links=%d", c.N(), len(c.ExternalLinks()))
	}
	src, dst := c.Node(0), c.Node(63)
	var landed sim.Time
	dst.Machine().Procs[0].NB.SetWriteHook(func(uint64, int) { landed = c.Engine().Now() })
	start := c.Engine().Now()
	done := false
	src.Core().StoreBlock(dst.MemBase()+2<<20, make([]byte, 64), func(err error) {
		if err != nil {
			t.Fatalf("store: %v", err)
		}
		done = true
	})
	c.Run()
	dst.Machine().Procs[0].NB.SetWriteHook(nil)
	if !done || landed == 0 {
		t.Fatal("corner-to-corner store never landed")
	}
	lat := landed - start
	// 14 mesh hops at <50ns each plus endpoints: roughly 0.7-1 us.
	if lat < 500*sim.Nanosecond || lat > 1500*sim.Nanosecond {
		t.Errorf("corner-to-corner = %v, want ~0.8us over 14 hops", lat)
	}
	if err := c.CheckQuiescent(); err != nil {
		t.Fatalf("not quiescent: %v", err)
	}
}

func TestAccessorsAndDefaults(t *testing.T) {
	c := chainCluster(t, 2)
	if c.Config().MemPerNode != DefaultMemPerNode {
		t.Error("Config() mismatch")
	}
	if c.Topology().N() != 2 {
		t.Error("Topology() mismatch")
	}
	if c.Node(1).Index() != 1 {
		t.Error("Index() mismatch")
	}
	c.RunFor(10 * sim.Microsecond) // advances the clock even when idle
	if c.Engine().Now() == 0 {
		t.Error("RunFor did not advance time")
	}

	// Zero-valued config fills every default.
	topo, err := topology.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := New(topo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Config().LinkSpeed != DefaultLinkSpeed || c2.Config().LinkWidth != DefaultLinkWidth ||
		c2.Config().UCWindow != DefaultUCWindow || c2.Config().CoresPerSocket != 1 {
		t.Errorf("defaults not filled: %+v", c2.Config())
	}
}

// A read from socket 0 to socket 3's memory inside a 4-socket supernode
// crosses two transit sockets in BOTH directions: the response packets
// are forwarded hop by hop via the NodeID routing tables (the path
// TCCluster cannot use across boards, but supernodes rely on).
func TestSupernodeFarSocketReadTransitsResponses(t *testing.T) {
	topo, err := topology.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SocketsPerNode = 4
	c := buildCluster(t, topo, cfg)
	n0 := c.Node(0)
	per := n0.MemSize() / 4
	if err := n0.PokeMem(3*per+0x40, []byte{0xCD, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	var got []byte
	n0.Machine().Procs[0].NB.CPURead(n0.MemBase()+3*per+0x40, make([]byte, 64), func(d []byte, err error) {
		if err != nil {
			t.Errorf("far read: %v", err)
			return
		}
		got = d
	})
	c.Run()
	if len(got) == 0 || got[0] != 0xCD {
		t.Fatalf("far-socket read failed: %v", got)
	}
	for _, s := range []int{1, 2} {
		cnt := n0.Machine().Procs[s].NB.Counters()
		if cnt.PktsForwarded < 2 { // request out, response back
			t.Errorf("transit socket %d forwarded %d packets, want >=2", s, cnt.PktsForwarded)
		}
	}
	if err := c.CheckQuiescent(); err != nil {
		t.Fatalf("not quiescent: %v", err)
	}
}
