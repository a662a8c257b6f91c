package nb

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/ht"
	"repro/internal/sim"
)

const nodeMem = 256 << 20 // 256 MB per node in these tests

// tcPair is a hand-wired two-node TCCluster: what the firmware package
// automates later, constructed here register by register to pin down the
// exact hardware semantics (paper Fig. 3 address map, scaled up to real
// granularity: node0 owns [0,256MB), node1 owns [256MB,512MB)).
type tcPair struct {
	eng  *sim.Engine
	link *ht.Link
	a, b *Northbridge
}

func newTCPair(t *testing.T) *tcPair {
	t.Helper()
	eng := sim.NewEngine()
	a := New(eng, "node0", nodeMem, DefaultParams())
	b := New(eng, "node1", nodeMem, DefaultParams())

	link := ht.NewLink(eng, ht.DefaultLinkConfig(ht.ClassProcessor, ht.ClassProcessor))
	link.ColdReset()
	eng.Run()
	// TCCluster boot essence: debug-register force + staged speed, then
	// warm reset (paper §V).
	link.A().SetForceNonCoherent(true)
	link.B().SetForceNonCoherent(true)
	link.A().SetProgrammedSpeed(ht.HT800)
	link.B().SetProgrammedSpeed(ht.HT800)
	link.A().SetProgrammedWidth(16)
	link.B().SetProgrammedWidth(16)
	link.WarmReset()
	eng.Run()
	if link.Type() != ht.TypeNonCoherent {
		t.Fatalf("link type %v, want non-coherent", link.Type())
	}

	if err := a.AttachLink(0, link.A()); err != nil {
		t.Fatal(err)
	}
	if err := b.AttachLink(0, link.B()); err != nil {
		t.Fatal(err)
	}

	// Both nodes claim NodeID 0 — the routing exploit of §IV.C.
	must(t, a.SetNodeID(0))
	must(t, b.SetNodeID(0))

	// node0: local DRAM at [0,256MB); remote memory appears as MMIO
	// owned by "NodeID 0" (itself) with the TCCluster link as DstLink.
	must(t, a.SetDRAMRange(0, DRAMRange{Base: 0, Limit: nodeMem - 1, DstNode: 0, RE: true, WE: true}))
	must(t, a.SetMMIORange(0, MMIORange{Base: nodeMem, Limit: 2*nodeMem - 1, DstNode: 0, DstLink: 0, RE: true, WE: true}))
	a.MemController().SetBase(0)

	// node1: mirror image.
	must(t, b.SetDRAMRange(0, DRAMRange{Base: nodeMem, Limit: 2*nodeMem - 1, DstNode: 0, RE: true, WE: true}))
	must(t, b.SetMMIORange(0, MMIORange{Base: 0, Limit: nodeMem - 1, DstNode: 0, DstLink: 0, RE: true, WE: true}))
	b.MemController().SetBase(nodeMem)

	return &tcPair{eng: eng, link: link, a: a, b: b}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestDecodeAddressStages(t *testing.T) {
	p := newTCPair(t)
	// Local DRAM.
	d := p.a.DecodeAddress(0x40)
	if d.Kind != DecideLocalDRAM {
		t.Errorf("local addr decoded %v", d.Kind)
	}
	// Remote memory: MMIO owned by "self" -> direct link, no routing
	// table involved.
	d = p.a.DecodeAddress(nodeMem + 0x40)
	if d.Kind != DecideDirectLink || d.Link != 0 || !d.MMIO {
		t.Errorf("remote addr decoded %+v, want direct link 0", d)
	}
	// Unmapped.
	d = p.a.DecodeAddress(1 << 40)
	if d.Kind != DecideMasterAbort {
		t.Errorf("unmapped addr decoded %v", d.Kind)
	}
}

func TestDRAMDecodedBeforeMMIO(t *testing.T) {
	// §IV.C: "The first step is to compare the address of every packet
	// against the DRAM and MMIO address ranges" — DRAM wins when both
	// could match.
	eng := sim.NewEngine()
	n := New(eng, "n", nodeMem, DefaultParams())
	must(t, n.SetNodeID(0))
	must(t, n.SetDRAMRange(0, DRAMRange{Base: 0, Limit: nodeMem - 1, DstNode: 0, RE: true, WE: true}))
	must(t, n.SetMMIORange(0, MMIORange{Base: 0, Limit: nodeMem - 1, DstNode: 0, DstLink: 2, RE: true, WE: true}))
	if d := n.DecodeAddress(0x1000); d.Kind != DecideLocalDRAM {
		t.Errorf("overlapping decode chose %v, want local-dram", d.Kind)
	}
}

func TestRemoteWriteLandsInPeerDRAM(t *testing.T) {
	p := newTCPair(t)
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i ^ 0x5A)
	}
	var wrote bool
	p.a.CPUWrite(nodeMem+0x100, payload, true, func(err error) {
		must(t, err)
		wrote = true
	})
	p.eng.Run()
	if !wrote {
		t.Fatal("posted write never completed at the source")
	}
	got := make([]byte, 64)
	must(t, p.b.MemController().Memory().Read(0x100, got))
	if !bytes.Equal(got, payload) {
		t.Errorf("peer DRAM holds %q, want %q", got, payload)
	}
	if p.b.Counters().BridgedPackets == 0 {
		t.Error("remote write did not cross the IO bridge")
	}
}

func TestRemoteWriteBothDirections(t *testing.T) {
	p := newTCPair(t)
	p.a.CPUWrite(nodeMem+0x40, []byte{0xA, 0xA, 0xA, 0xA}, true, func(error) {})
	p.b.CPUWrite(0x40, []byte{0xB, 0xB, 0xB, 0xB}, true, func(error) {})
	p.eng.Run()
	gotB := make([]byte, 4)
	must(t, p.b.MemController().Memory().Read(0x40, gotB))
	gotA := make([]byte, 4)
	must(t, p.a.MemController().Memory().Read(0x40, gotA))
	if gotB[0] != 0xA || gotA[0] != 0xB {
		t.Errorf("bidirectional writes landed as A->B=%#x B->A=%#x", gotB[0], gotA[0])
	}
}

func TestRemoteWriteOneWayLatency(t *testing.T) {
	p := newTCPair(t)
	var landed sim.Time
	p.b.SetWriteHook(func(addr uint64, n int) { landed = p.eng.Now() })
	start := p.eng.Now()
	p.a.CPUWrite(nodeMem+0x40, make([]byte, 64), true, func(error) {})
	p.eng.Run()
	lat := landed - start
	// Wire-to-DRAM path: SRQ/XBar + 22.7ns serialization + flight +
	// XBar + IO bridge + DRAM. Order 100-200ns; the full paper number
	// (227ns) additionally includes WC flush and the poll-detect cost,
	// which live in the cpu package.
	if lat < 80*sim.Nanosecond || lat > 250*sim.Nanosecond {
		t.Errorf("one-way remote store latency = %v, want ~100-200ns", lat)
	}
}

// The write-only network property (paper §IV.A): a read across a
// TCCluster link strands its response at the remote node because both
// nodes are NodeID 0 and response routing is tag/NodeID-bound.
func TestRemoteReadStrandsResponse(t *testing.T) {
	p := newTCPair(t)
	answered := false
	p.a.CPURead(nodeMem+0x40, make([]byte, 64), func([]byte, error) { answered = true })
	p.eng.Run()
	if answered {
		t.Fatal("read across TCCluster link completed — it must not")
	}
	if p.b.Counters().OrphanResponses != 1 {
		t.Errorf("peer orphan responses = %d, want 1", p.b.Counters().OrphanResponses)
	}
	if p.a.MatchTable().Outstanding() != 1 {
		t.Errorf("requester outstanding tags = %d, want 1 (hung read)", p.a.MatchTable().Outstanding())
	}
}

// Non-posted writes across TCCluster deliver data but strand the
// TgtDone: only posted stores are usable, as the paper's programming
// model states.
func TestRemoteNonPostedWriteStrandsAck(t *testing.T) {
	p := newTCPair(t)
	acked := false
	p.a.CPUWrite(nodeMem+0x80, []byte{1, 2, 3, 4}, false, func(err error) { acked = err == nil })
	p.eng.Run()
	if acked {
		t.Fatal("non-posted write acked across TCCluster link")
	}
	got := make([]byte, 4)
	must(t, p.b.MemController().Memory().Read(0x80, got))
	if got[0] != 1 {
		t.Error("non-posted write data did not land despite stranded ack")
	}
	if p.b.Counters().OrphanResponses != 1 {
		t.Errorf("peer orphan responses = %d, want 1", p.b.Counters().OrphanResponses)
	}
}

func TestLocalReadWriteRoundTrip(t *testing.T) {
	p := newTCPair(t)
	var got []byte
	p.a.CPUWrite(0x200, []byte{9, 9, 9, 9}, true, func(error) {})
	p.eng.Run()
	p.a.CPURead(0x200, make([]byte, 4), func(data []byte, err error) {
		must(t, err)
		got = data
	})
	p.eng.Run()
	if len(got) != 4 || got[0] != 9 {
		t.Errorf("local read returned %v", got)
	}
}

func TestMasterAbortOnUnmappedWrite(t *testing.T) {
	p := newTCPair(t)
	p.a.CPUWrite(1<<40, []byte{1, 2, 3, 4}, true, func(error) {})
	p.eng.Run()
	if p.a.Counters().MasterAborts != 1 {
		t.Errorf("master aborts = %d, want 1", p.a.Counters().MasterAborts)
	}
}

// Interrupt broadcasts must not cross TCCluster links; if firmware
// leaves the TCCluster link in a broadcast route, interrupts leak into
// the neighbor — the failure §VI's custom kernel suppresses.
func TestBroadcastLeakAcrossTCClusterLink(t *testing.T) {
	p := newTCPair(t)
	leaked := 0
	p.b.SetBroadcastHook(func(*ht.Packet) { leaked++ })

	// Misconfigured: broadcast route includes link 0.
	must(t, p.a.SetRoute(0, RouteEntry{BcastLinks: 1 << 0}))
	p.a.CPUBroadcast(0xFEE0_0000)
	p.eng.Run()
	if leaked != 1 {
		t.Fatalf("misconfigured broadcast: leaked = %d, want 1", leaked)
	}

	// Correct TCCluster config: broadcast routes pruned.
	must(t, p.a.SetRoute(0, RouteEntry{BcastLinks: 0}))
	p.a.CPUBroadcast(0xFEE0_0000)
	p.eng.Run()
	if leaked != 1 {
		t.Errorf("pruned broadcast still leaked (total %d)", leaked)
	}
}

// Three nodes in a chain: A-(link)-B-(link)-C. A store from A to C's
// memory transits B without bridging, and each extra hop adds <50ns
// (paper §VI multi-hop measurement).
func TestMultiHopForwardingAndLatencyAdder(t *testing.T) {
	eng := sim.NewEngine()
	nodes := make([]*Northbridge, 3)
	for i := range nodes {
		nodes[i] = New(eng, string(rune('A'+i)), nodeMem, DefaultParams())
		must(t, nodes[i].SetNodeID(0))
	}
	mkLink := func() *ht.Link {
		l := ht.NewLink(eng, ht.DefaultLinkConfig(ht.ClassProcessor, ht.ClassProcessor))
		l.ColdReset()
		eng.Run()
		l.A().SetForceNonCoherent(true)
		l.B().SetForceNonCoherent(true)
		l.A().SetProgrammedSpeed(ht.HT800)
		l.B().SetProgrammedSpeed(ht.HT800)
		l.A().SetProgrammedWidth(16)
		l.B().SetProgrammedWidth(16)
		l.WarmReset()
		eng.Run()
		return l
	}
	lab := mkLink() // A.link0 <-> B.link0
	lbc := mkLink() // B.link1 <-> C.link0
	must(t, nodes[0].AttachLink(0, lab.A()))
	must(t, nodes[1].AttachLink(0, lab.B()))
	must(t, nodes[1].AttachLink(1, lbc.A()))
	must(t, nodes[2].AttachLink(0, lbc.B()))

	// Global space: A=[0,256MB) B=[256,512) C=[512,768). Interval
	// routing: each node maps everything below and above itself.
	base := func(i int) uint64 { return uint64(i) * nodeMem }
	for i, n := range nodes {
		must(t, n.SetDRAMRange(0, DRAMRange{Base: base(i), Limit: base(i+1) - 1, DstNode: 0, RE: true, WE: true}))
		n.MemController().SetBase(base(i))
	}
	// A: all remote memory is "up" through link 0.
	must(t, nodes[0].SetMMIORange(0, MMIORange{Base: base(1), Limit: base(3) - 1, DstNode: 0, DstLink: 0, RE: true, WE: true}))
	// B: below through link 0, above through link 1.
	must(t, nodes[1].SetMMIORange(0, MMIORange{Base: 0, Limit: base(1) - 1, DstNode: 0, DstLink: 0, RE: true, WE: true}))
	must(t, nodes[1].SetMMIORange(1, MMIORange{Base: base(2), Limit: base(3) - 1, DstNode: 0, DstLink: 1, RE: true, WE: true}))
	// C: everything below through link 0.
	must(t, nodes[2].SetMMIORange(0, MMIORange{Base: 0, Limit: base(2) - 1, DstNode: 0, DstLink: 0, RE: true, WE: true}))

	var landB, landC sim.Time
	nodes[1].SetWriteHook(func(uint64, int) { landB = eng.Now() })
	nodes[2].SetWriteHook(func(uint64, int) { landC = eng.Now() })

	start := eng.Now()
	nodes[0].CPUWrite(base(1)+0x40, make([]byte, 64), true, func(error) {})
	eng.Run()
	oneHop := landB - start

	start = eng.Now()
	nodes[0].CPUWrite(base(2)+0x40, make([]byte, 64), true, func(error) {})
	eng.Run()
	twoHop := landC - start

	got := make([]byte, 4)
	must(t, nodes[2].MemController().Memory().Read(0x40, got))
	adder := twoHop - oneHop
	if adder <= 0 || adder >= 50*sim.Nanosecond {
		t.Errorf("per-hop latency adder = %v, want (0,50ns) per paper §VI", adder)
	}
	if nodes[1].Counters().PktsForwarded != 1 {
		t.Errorf("middle node forwarded %d packets, want 1", nodes[1].Counters().PktsForwarded)
	}
	// B bridged exactly one packet: the one-hop write into its own DRAM.
	// The transit packet to C must NOT have crossed B's IO bridge —
	// IO-link to IO-link forwarding happens without bridging (§IV.C).
	if nodes[1].Counters().BridgedPackets != 1 {
		t.Errorf("middle node bridged %d packets, want 1 (transit must not bridge)",
			nodes[1].Counters().BridgedPackets)
	}
}

func TestForwardToUnwiredLinkDrops(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, "n", nodeMem, DefaultParams())
	must(t, n.SetNodeID(0))
	must(t, n.SetMMIORange(0, MMIORange{Base: nodeMem, Limit: 2*nodeMem - 1, DstNode: 0, DstLink: 3, RE: true, WE: true}))
	n.CPUWrite(nodeMem+0x40, []byte{1, 2, 3, 4}, true, func(error) {})
	eng.Run()
	if n.Counters().DeadLinkDrops != 1 {
		t.Errorf("dead link drops = %d, want 1", n.Counters().DeadLinkDrops)
	}
}

func TestSetterValidation(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, "n", nodeMem, DefaultParams())
	if n.SetNodeID(8) == nil {
		t.Error("NodeID 8 accepted")
	}
	if n.SetDRAMRange(8, DRAMRange{}) == nil {
		t.Error("DRAM index 8 accepted")
	}
	if n.SetMMIORange(-1, MMIORange{}) == nil {
		t.Error("MMIO index -1 accepted")
	}
	if n.SetRoute(8, RouteEntry{}) == nil {
		t.Error("route index 8 accepted")
	}
	if n.AttachLink(4, nil) == nil {
		t.Error("link index 4 accepted")
	}
	if n.NodeID() != ResetNodeID {
		t.Errorf("fresh NodeID = %d, want reset value %d", n.NodeID(), ResetNodeID)
	}
}

// Property: for any valid configuration of DRAM and MMIO ranges, every
// address decodes to exactly the range that contains it (DRAM first),
// and addresses in no range master-abort.
func TestDecodeAddressTotalityProperty(t *testing.T) {
	f := func(dramGran, mmioGran [4]uint16, nodeID uint8) bool {
		eng := sim.NewEngine()
		n := New(eng, "prop", 1<<30, DefaultParams())
		if n.SetNodeID(nodeID%8) != nil {
			return false
		}
		// Build disjoint DRAM ranges on even 16MB granules and disjoint
		// MMIO ranges above them.
		var drams []DRAMRange
		base := uint64(0)
		for i := 0; i < 4; i++ {
			size := (uint64(dramGran[i]%4) + 1) * DRAMGranularity
			r := DRAMRange{Base: base, Limit: base + size - 1,
				DstNode: uint8(i) % 8, RE: true, WE: true}
			if n.SetDRAMRange(i, r) != nil {
				return false
			}
			drams = append(drams, r)
			base += size
		}
		var mmios []MMIORange
		mbase := uint64(1) << 40
		for i := 0; i < 4; i++ {
			size := (uint64(mmioGran[i]%16) + 1) * MMIOGranularity
			r := MMIORange{Base: mbase, Limit: mbase + size - 1,
				DstNode: uint8(i) % 8, DstLink: uint8(i) % 4, RE: true, WE: true}
			if n.SetMMIORange(i, r) != nil {
				return false
			}
			mmios = append(mmios, r)
			mbase += size
		}
		// Probe range boundaries and interiors.
		for i, r := range drams {
			for _, a := range []uint64{r.Base, r.Limit, (r.Base + r.Limit) / 2} {
				d := n.DecodeAddress(a)
				want := DecideLocalDRAM
				if r.DstNode != n.NodeID() {
					want = DecideRouteLink
				}
				if d.Kind != want || d.DstNode != drams[i].DstNode {
					return false
				}
			}
		}
		for i, r := range mmios {
			for _, a := range []uint64{r.Base, r.Limit} {
				d := n.DecodeAddress(a)
				if !d.MMIO || d.DstNode != mmios[i].DstNode {
					return false
				}
				if r.DstNode == n.NodeID() {
					if d.Kind != DecideDirectLink || d.Link != r.DstLink {
						return false
					}
				} else if d.Kind != DecideRouteLink {
					return false
				}
			}
		}
		// Gaps master-abort.
		if n.DecodeAddress(base).Kind != DecideMasterAbort {
			return false
		}
		if n.DecodeAddress(mbase).Kind != DecideMasterAbort {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// stubHook counts probe requests from the northbridge's coherency hook.
type stubHook struct{ calls, writes int }

func (s *stubHook) OnLocalAccess(addr uint64, n int, write, fromIO bool) int {
	s.calls++
	if write && fromIO {
		s.writes++
		return 3 // pretend three probes went out
	}
	return 0
}

func TestCoherencyHookInvokedAndCounted(t *testing.T) {
	p := newTCPair(t)
	hook := &stubHook{}
	p.b.SetCoherencyHook(hook)
	p.b.SetLog(func(string) {}) // exercise the logger plumbing
	p.a.CPUWrite(nodeMem+0x40, []byte{1, 2, 3, 4}, true, func(error) {})
	p.eng.Run()
	if hook.writes != 1 {
		t.Errorf("hook writes = %d, want 1", hook.writes)
	}
	if p.b.Counters().ProbesIssued != 3 {
		t.Errorf("probes issued = %d, want 3", p.b.Counters().ProbesIssued)
	}
}

func TestRegisterReadbacksAndName(t *testing.T) {
	p := newTCPair(t)
	if p.a.Name() != "node0" {
		t.Errorf("Name = %q", p.a.Name())
	}
	if got := p.a.MMIORangeAt(0); got.Base != nodeMem {
		t.Errorf("MMIO[0].Base = %#x", got.Base)
	}
	if got := p.a.DRAMRangeAt(0); got.Limit != nodeMem-1 {
		t.Errorf("DRAM[0].Limit = %#x", got.Limit)
	}
	must(t, p.a.SetRoute(3, RouteEntry{ReqLink: 2, RespLink: 2}))
	if got := p.a.RouteAt(3); got.ReqLink != 2 {
		t.Errorf("RouteAt(3) = %+v", got)
	}
	if p.a.LinkPort(0) == nil || p.a.LinkPort(3) != nil {
		t.Error("LinkPort readback")
	}
	mc := p.a.MemController()
	if mc.Base() != 0 || mc.Memory().Size() != nodeMem {
		t.Error("controller accessors")
	}
	r, w := mc.Stats()
	_ = r
	_ = w
	for k, want := range map[DecisionKind]string{DecideLocalDRAM: "local-dram",
		DecideDirectLink: "direct-link", DecideRouteLink: "route-link",
		DecideMasterAbort: "master-abort"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}
