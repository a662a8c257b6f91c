package firmware

import (
	"fmt"
	"sort"

	"repro/internal/cpu"
	"repro/internal/ht"
	"repro/internal/nb"
	"repro/internal/sim"
	"repro/internal/southbridge"
)

// RemoteRoute maps a contiguous range of destination supernodes to an
// external TCCluster link. Each route becomes one MMIO base/limit pair
// on every socket; the owning socket forwards directly out the link
// (the NodeID trick), the others route toward the owner.
type RemoteRoute struct {
	LoNode, HiNode int // destination supernode indices, inclusive
	Proc, Link     int // external link: socket index and its link number
}

// BootConfig is the per-machine topology description the paper says each
// BSP needs: "a topology description and its rank within that topology"
// (§IV.E).
type BootConfig struct {
	Rank         int    // this supernode's index in address order
	NumNodes     int    // supernodes in the cluster
	MemPerNode   uint64 // bytes of DRAM per supernode (16 MB granular)
	RemoteRoutes []RemoteRoute
	LinkSpeed    ht.Speed // staged TCCluster link clock (HT2400 in §V)
	LinkWidth    int
	UCWindow     uint64 // bytes at the base of local memory mapped UC
}

// Validate checks internal consistency of the configuration.
func (c *BootConfig) Validate(numProcs int) error {
	if c.NumNodes < 1 || c.Rank < 0 || c.Rank >= c.NumNodes {
		return fmt.Errorf("firmware: rank %d out of %d nodes", c.Rank, c.NumNodes)
	}
	if c.MemPerNode == 0 || c.MemPerNode%nb.DRAMGranularity != 0 {
		return fmt.Errorf("firmware: MemPerNode %#x not 16MB granular", c.MemPerNode)
	}
	if numProcs > 0 && c.MemPerNode%(uint64(numProcs)*nb.DRAMGranularity) != 0 {
		return fmt.Errorf("firmware: MemPerNode %#x does not split across %d sockets at 16MB granularity",
			c.MemPerNode, numProcs)
	}
	if c.UCWindow%cpu.MTRRGranularity != 0 {
		return fmt.Errorf("firmware: UC window %#x not 4KB granular", c.UCWindow)
	}
	// Remote routes must tile [0,NumNodes) minus Rank exactly: the
	// northbridge's interval routing cannot express holes (§IV.D).
	covered := make([]int, c.NumNodes)
	for _, r := range c.RemoteRoutes {
		if r.LoNode > r.HiNode || r.LoNode < 0 || r.HiNode >= c.NumNodes {
			return fmt.Errorf("firmware: remote route [%d,%d] out of range", r.LoNode, r.HiNode)
		}
		for n := r.LoNode; n <= r.HiNode; n++ {
			covered[n]++
		}
	}
	for n := 0; n < c.NumNodes; n++ {
		if n == c.Rank {
			if covered[n] != 0 {
				return fmt.Errorf("firmware: remote route covers own rank %d", n)
			}
			continue
		}
		if covered[n] == 0 {
			return fmt.Errorf("firmware: node %d unreachable (address-space hole)", n)
		}
		if covered[n] > 1 {
			return fmt.Errorf("firmware: node %d covered by %d routes (overlap)", n, covered[n])
		}
	}
	if len(c.RemoteRoutes) > nb.NumMMIORanges-1 {
		return fmt.Errorf("firmware: %d remote routes exceed %d MMIO ranges (one reserved for IO)",
			len(c.RemoteRoutes), nb.NumMMIORanges-1)
	}
	return nil
}

// Per-phase virtual-time costs: coarse but keeps the boot log ordered
// like a real serial console.
const (
	phaseCost   = 10 * sim.Microsecond
	exitCARCost = 100 * sim.Microsecond
)

func (m *Machine) advance(d sim.Time) { m.Eng.RunFor(d) }

// nodeIDs[proc] after enumeration.
func (m *Machine) nodeIDOf(proc int) uint8 { return m.Procs[proc].NB.NodeID() }

// PhaseColdCheck verifies the post-cold-reset state: every link trained,
// and every processor-to-processor link — including the designated
// TCCluster links — trained coherent, which is what makes the debug
// register reachable in the first place (§IV.B).
func (m *Machine) PhaseColdCheck() error {
	m.advance(phaseCost)
	check := func(l *ht.Link, wantCoherent bool, what string) error {
		if l.State() != ht.StateActive {
			return fmt.Errorf("firmware(%s): %s link not trained: %v", m.Name, what, l.State())
		}
		if wantCoherent && l.Type() != ht.TypeCoherent {
			return fmt.Errorf("firmware(%s): %s link trained %v, want coherent", m.Name, what, l.Type())
		}
		return nil
	}
	for _, e := range m.internal {
		if err := check(e.L, true, "internal"); err != nil {
			return err
		}
	}
	for _, t := range m.tcc {
		if err := check(t.L, true, "TCCluster"); err != nil {
			return err
		}
	}
	if m.southbridge != nil {
		if err := check(m.southbridge, false, "southbridge"); err != nil {
			return err
		}
		if m.southbridge.Type() != ht.TypeNonCoherent {
			return fmt.Errorf("firmware(%s): southbridge link trained coherent", m.Name)
		}
	}
	m.record("cold-reset", "%d sockets, %d internal, %d TCCluster links trained at %v x%d",
		len(m.Procs), len(m.internal), len(m.tcc), ht.ColdResetSpeed, ht.ColdResetWidth)
	return nil
}

// PhaseCARFetch models cache-as-RAM execution: the BSP fetches the
// firmware image from the southbridge's flash ROM with sized reads over
// the non-coherent link, at flash speed — the phase the paper calls out
// as "limited by the read bandwidth of the ROM" (§V). A temporary MMIO
// range decodes the top-of-4GB flash window straight out the
// southbridge link; it is torn down afterwards.
func (m *Machine) PhaseCARFetch(fetchBytes int) error {
	if m.flash == nil {
		m.record("cache-as-ram", "no flash device attached; CAR fetch skipped")
		return nil
	}
	if fetchBytes <= 0 || fetchBytes > southbridge.ROMWindow {
		return fmt.Errorf("firmware(%s): CAR fetch of %d bytes out of range", m.Name, fetchBytes)
	}
	bsp := m.Procs[m.BSP].NB
	romRange := nb.MMIORange{
		Base:    southbridge.ROMBase,
		Limit:   southbridge.ROMBase + southbridge.ROMWindow - 1,
		DstNode: bsp.NodeID(), // reset value: "locally owned", direct link
		DstLink: uint8(m.southbridgeLink),
		RE:      true, WE: true,
	}
	if err := bsp.SetMMIORange(nb.NumMMIORanges-1, romRange); err != nil {
		return err
	}
	start := m.Eng.Now()
	// Each line read lands directly at its offset in fetched, which the
	// loop keeps: the ROM image is the one read result retained.
	fetched := make([]byte, fetchBytes)
	got := 0
	var ferr error
	done := false
	var fetch func(off int)
	fetch = func(off int) {
		if off >= fetchBytes {
			done = true
			return
		}
		n := 64
		if fetchBytes-off < n {
			n = fetchBytes - off
		}
		bsp.CPURead(southbridge.ROMBase+uint64(off), fetched[off:off+n], func(_ []byte, err error) {
			if err != nil {
				ferr = err
				done = true
				return
			}
			got = off + n
			fetch(off + n)
		})
	}
	fetch(0)
	m.Eng.Run()
	if ferr != nil {
		return fmt.Errorf("firmware(%s): CAR fetch: %w", m.Name, ferr)
	}
	if !done || got != fetchBytes {
		return fmt.Errorf("firmware(%s): CAR fetch stalled at %d of %d bytes", m.Name, got, fetchBytes)
	}
	for i := range fetched {
		if fetched[i] != m.flash.ROM()[i] {
			return fmt.Errorf("firmware(%s): CAR fetch corrupted at byte %d", m.Name, i)
		}
	}
	// Tear the temporary decode back down.
	if err := bsp.SetMMIORange(nb.NumMMIORanges-1, nb.MMIORange{}); err != nil {
		return err
	}
	dur := m.Eng.Now() - start
	m.carMBs = float64(fetchBytes) / dur.Seconds() / 1e6
	m.record("cache-as-ram", "fetched %d KB of firmware from flash in %v (%.1f MB/s)",
		fetchBytes>>10, dur, m.carMBs)
	return nil
}

// PhaseCoherentEnumeration performs the BSP's depth-first search over
// coherent links, assigning NodeIDs (reset value 7 marks unvisited
// sockets, §IV.E) and programming intra-supernode routing tables. The
// TCCluster firmware deliberately does NOT traverse designated TCCluster
// links even though they are coherent right now (§V "Coherent
// Enumeration").
func (m *Machine) PhaseCoherentEnumeration() error {
	m.advance(phaseCost)
	for i, p := range m.Procs {
		if p.NB.NodeID() != nb.ResetNodeID {
			return fmt.Errorf("firmware(%s): socket %d NodeID %d, want reset value %d",
				m.Name, i, p.NB.NodeID(), nb.ResetNodeID)
		}
	}
	// Depth-first search from the BSP.
	order := []int{m.BSP}
	seen := map[int]bool{m.BSP: true}
	var dfs func(proc int)
	dfs = func(proc int) {
		adj := m.neighbors(proc)
		sort.Slice(adj, func(i, j int) bool { return adj[i][0] < adj[j][0] })
		for _, a := range adj {
			if !seen[a[1]] {
				seen[a[1]] = true
				order = append(order, a[1])
				dfs(a[1])
			}
		}
	}
	dfs(m.BSP)
	if len(order) != len(m.Procs) {
		return fmt.Errorf("firmware(%s): enumeration reached %d of %d sockets — coherent fabric partitioned",
			m.Name, len(order), len(m.Procs))
	}
	for id, proc := range order {
		if err := m.Procs[proc].NB.SetNodeID(uint8(id)); err != nil {
			return err
		}
	}

	// Intra-supernode routing: BFS next-hops between every socket pair,
	// plus broadcast masks. Broadcasts flood the BFS tree AND every
	// non-coherent link — the hardware offers no way to fence system-
	// management broadcasts off the TCCluster links, which is exactly
	// why the paper needs a custom kernel with SMC disabled (§VI). The
	// kernel package owns that suppression.
	treeMask := make([]uint8, len(m.Procs))
	for _, t := range m.tcc {
		treeMask[t.Proc] |= 1 << uint(t.Link)
	}
	parent := map[int]int{m.BSP: -1}
	queue := []int{m.BSP}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, a := range m.neighbors(cur) {
			if _, ok := parent[a[1]]; !ok {
				parent[a[1]] = cur
				treeMask[cur] |= 1 << uint(a[0])
				// Find the reverse link index.
				for _, b := range m.neighbors(a[1]) {
					if b[1] == cur {
						treeMask[a[1]] |= 1 << uint(b[0])
						break
					}
				}
				queue = append(queue, a[1])
			}
		}
	}
	for proc := range m.Procs {
		next := m.bfsNextHops(proc)
		for dstProc, link := range next {
			entry := nb.RouteEntry{BcastLinks: treeMask[proc]}
			if dstProc == proc {
				entry.ReqLink = nb.RouteSelf
				entry.RespLink = nb.RouteSelf
			} else {
				entry.ReqLink = uint8(link)
				entry.RespLink = uint8(link)
			}
			if err := m.Procs[proc].NB.SetRoute(m.nodeIDOf(dstProc), entry); err != nil {
				return err
			}
		}
	}
	m.record("coherent-enumeration", "assigned NodeIDs to %d sockets (BSP=socket%d), %d TCCluster links ignored",
		len(order), m.BSP, len(m.tcc))
	return nil
}

// bfsNextHops returns, for each destination socket, the egress link
// index at src (or -1 for self).
func (m *Machine) bfsNextHops(src int) []int {
	next := make([]int, len(m.Procs))
	for i := range next {
		next[i] = -1
	}
	type hop struct{ proc, firstLink int }
	queue := []hop{}
	visited := map[int]bool{src: true}
	for _, a := range m.neighbors(src) {
		if !visited[a[1]] {
			visited[a[1]] = true
			next[a[1]] = a[0]
			queue = append(queue, hop{a[1], a[0]})
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, a := range m.neighbors(cur.proc) {
			if !visited[a[1]] {
				visited[a[1]] = true
				next[a[1]] = cur.firstLink
				queue = append(queue, hop{a[1], cur.firstLink})
			}
		}
	}
	return next
}

// PhaseForceNonCoherent sets the debug register on every designated
// TCCluster port and stages the higher link clock; neither takes effect
// until the warm reset (§V "Force Non-Coherent").
func (m *Machine) PhaseForceNonCoherent(cfg BootConfig) error {
	m.advance(phaseCost)
	speed := cfg.LinkSpeed
	if speed == 0 {
		speed = ht.HT2400
	}
	width := cfg.LinkWidth
	if width == 0 {
		width = 16
	}
	for _, t := range m.tcc {
		p := m.localPort(t.Proc, t.Link)
		if p == nil {
			return fmt.Errorf("firmware(%s): TCC port socket%d/link%d not wired", m.Name, t.Proc, t.Link)
		}
		p.SetForceNonCoherent(true)
		p.SetProgrammedSpeed(speed)
		p.SetProgrammedWidth(width)
	}
	// Internal links run at full speed, still coherent.
	for _, e := range m.internal {
		for _, p := range []*ht.Port{m.localPort(e.ProcA, e.LinkA), m.localPort(e.ProcB, e.LinkB)} {
			p.SetProgrammedSpeed(ht.HT2600)
			p.SetProgrammedWidth(16)
		}
	}
	m.record("force-noncoherent", "debug register set on %d TCCluster ports, staged %v x%d",
		len(m.tcc), speed, width)
	return nil
}

// PhaseWarmReset asserts warm reset on every link of this machine. The
// orchestrator runs the engine afterwards so all boards retrain
// simultaneously (the short-circuited reset wire of §V).
func (m *Machine) PhaseWarmReset() {
	m.record("warm-reset", "asserting warm reset on all links")
	for _, e := range m.internal {
		e.L.WarmReset()
	}
	for _, t := range m.tcc {
		t.L.WarmReset()
	}
	if m.southbridge != nil {
		m.southbridge.WarmReset()
	}
}

// PhaseVerifyLinks checks post-warm-reset training: TCCluster links must
// now be non-coherent. A coherent TCCluster link here means the debug
// register was never set — the boot aborts, which is precisely what the
// failure-injection tests exercise.
func (m *Machine) PhaseVerifyLinks() error {
	m.advance(phaseCost)
	for _, t := range m.tcc {
		if t.L.State() != ht.StateActive {
			return fmt.Errorf("firmware(%s): TCC link socket%d/link%d did not retrain", m.Name, t.Proc, t.Link)
		}
		if t.L.Type() != ht.TypeNonCoherent {
			return fmt.Errorf("firmware(%s): TCC link socket%d/link%d retrained %v — debug register not set?",
				m.Name, t.Proc, t.Link, t.L.Type())
		}
	}
	for _, e := range m.internal {
		if e.L.Type() != ht.TypeCoherent {
			return fmt.Errorf("firmware(%s): internal link retrained %v", m.Name, e.L.Type())
		}
	}
	var detail string
	if len(m.tcc) > 0 {
		l := m.tcc[0].L
		detail = fmt.Sprintf("TCCluster links non-coherent at %v x%d (%.1f Gbit/s/lane)",
			l.Speed(), l.Width(), l.Speed().GbitPerLane())
	} else {
		detail = "no TCCluster links"
	}
	m.record("verify-links", "%s", detail)
	return nil
}

// PhaseNorthbridgeInit programs NodeID-relative DRAM ranges and the
// TCCluster MMIO ranges on every socket (§V "Northbridge Init").
func (m *Machine) PhaseNorthbridgeInit(cfg BootConfig) error {
	m.advance(phaseCost)
	if err := cfg.Validate(len(m.Procs)); err != nil {
		return err
	}
	memPerProc := cfg.MemPerNode / uint64(len(m.Procs))
	base := uint64(cfg.Rank) * cfg.MemPerNode
	for pi, p := range m.Procs {
		// Local DRAM: one range per socket of this supernode.
		for pj := range m.Procs {
			r := nb.DRAMRange{
				Base:    base + uint64(pj)*memPerProc,
				Limit:   base + uint64(pj+1)*memPerProc - 1,
				DstNode: m.nodeIDOf(pj),
				RE:      true, WE: true,
			}
			if err := p.NB.SetDRAMRange(pj, r); err != nil {
				return fmt.Errorf("firmware(%s): socket %d DRAM range %d: %w", m.Name, pi, pj, err)
			}
		}
		// Remote supernodes: MMIO ranges, owner socket forwards directly.
		for ri, rr := range cfg.RemoteRoutes {
			r := nb.MMIORange{
				Base:    uint64(rr.LoNode) * cfg.MemPerNode,
				Limit:   uint64(rr.HiNode+1)*cfg.MemPerNode - 1,
				DstNode: m.nodeIDOf(rr.Proc),
				DstLink: uint8(rr.Link),
				RE:      true, WE: true,
			}
			if err := p.NB.SetMMIORange(ri, r); err != nil {
				return fmt.Errorf("firmware(%s): socket %d MMIO range %d: %w", m.Name, pi, ri, err)
			}
		}
	}
	m.record("northbridge-init", "rank %d/%d: DRAM [%#x,%#x), %d remote MMIO routes",
		cfg.Rank, cfg.NumNodes, base, base+cfg.MemPerNode, len(cfg.RemoteRoutes))
	return nil
}

// PhaseMSRInit programs every core's MTRRs: local DRAM write-back, the
// receive window uncachable, and all remote supernode memory write-
// combining — the mapping that makes the SRQ emit non-coherent posted
// packets (§V "CPU MSR Init").
func (m *Machine) PhaseMSRInit(cfg BootConfig) error {
	m.advance(phaseCost)
	base := uint64(cfg.Rank) * cfg.MemPerNode
	top := uint64(cfg.NumNodes) * cfg.MemPerNode
	for pi, p := range m.Procs {
		for ci, core := range p.Cores {
			mt := core.MTRR()
			mt.Clear()
			if err := mt.SetRange(base, base+cfg.MemPerNode-1, cpu.WriteBack); err != nil {
				return err
			}
			if cfg.UCWindow > 0 {
				if err := mt.SetRange(base, base+cfg.UCWindow-1, cpu.Uncacheable); err != nil {
					return err
				}
			}
			if base > 0 {
				if err := mt.SetRange(0, base-1, cpu.WriteCombining); err != nil {
					return err
				}
			}
			if base+cfg.MemPerNode < top {
				if err := mt.SetRange(base+cfg.MemPerNode, top-1, cpu.WriteCombining); err != nil {
					return err
				}
			}
			_ = pi
			_ = ci
		}
	}
	m.record("cpu-msr-init", "WB local, UC window %#x, WC remote [0,%#x)", cfg.UCWindow, top)
	return nil
}

// PhaseMemoryInit points each socket's memory controller at its slice of
// the global address space and reports sizes (§V "Memory Init").
func (m *Machine) PhaseMemoryInit(cfg BootConfig) error {
	m.advance(phaseCost)
	memPerProc := cfg.MemPerNode / uint64(len(m.Procs))
	base := uint64(cfg.Rank) * cfg.MemPerNode
	var total uint64
	for pi, p := range m.Procs {
		mc := p.NB.MemController()
		if mc.Memory().Size() < memPerProc {
			return fmt.Errorf("firmware(%s): socket %d has %#x bytes, config needs %#x",
				m.Name, pi, mc.Memory().Size(), memPerProc)
		}
		mc.SetBase(base + uint64(pi)*memPerProc)
		total += memPerProc
	}
	m.record("memory-init", "%d MB across %d sockets", total>>20, len(m.Procs))
	return nil
}

// PhaseExitCAR models leaving cache-as-RAM mode: firmware copies itself
// to DRAM and execution speeds up (§V "EXIT CAR").
func (m *Machine) PhaseExitCAR() {
	m.advance(exitCARCost)
	if m.carMBs > 0 {
		m.record("exit-car", "firmware copied to DRAM (flash was %.1f MB/s; DRAM runs ~12800 MB/s), L3 returned to cache duty",
			m.carMBs)
		return
	}
	m.record("exit-car", "firmware copied to DRAM, L3 returned to cache duty")
}

// PhaseSkipNCEnumeration records that non-coherent device enumeration is
// suppressed on TCCluster links: the processor on the far side is NOT an
// IO device to be configured (§V "Non-Coherent Enumeration").
func (m *Machine) PhaseSkipNCEnumeration() error {
	m.advance(phaseCost)
	for _, t := range m.tcc {
		peer := m.localPort(t.Proc, t.Link).Peer()
		if peer.Class() != ht.ClassProcessor {
			return fmt.Errorf("firmware(%s): TCC link peer is %v, expected a processor", m.Name, peer.Class())
		}
	}
	m.record("skip-nc-enumeration", "suppressed IO enumeration on %d TCCluster links", len(m.tcc))
	return nil
}

// PhaseLoadOS hands off to the kernel model (§V "Loading Operating
// System").
func (m *Machine) PhaseLoadOS() {
	m.advance(phaseCost)
	m.record("load-os", "handing off to kernel (64-bit long mode)")
}

// BootTCCluster drives all machines through the boot sequence in
// lockstep, with the engine run after the warm reset so every board
// retrains simultaneously.
func BootTCCluster(eng *sim.Engine, machines []*Machine, cfgs []BootConfig) error {
	if len(machines) != len(cfgs) {
		return fmt.Errorf("firmware: %d machines, %d configs", len(machines), len(cfgs))
	}
	for i, m := range machines {
		if err := cfgs[i].Validate(len(m.Procs)); err != nil {
			return err
		}
	}
	for i, m := range machines {
		if err := m.PhaseColdCheck(); err != nil {
			return err
		}
		if err := m.PhaseCARFetch(4096); err != nil {
			return err
		}
		if err := m.PhaseCoherentEnumeration(); err != nil {
			return err
		}
		if err := m.PhaseForceNonCoherent(cfgs[i]); err != nil {
			return err
		}
	}
	for _, m := range machines {
		m.PhaseWarmReset()
	}
	eng.Run() // synchronized retrain
	for i, m := range machines {
		if err := m.PhaseVerifyLinks(); err != nil {
			return err
		}
		if err := m.PhaseNorthbridgeInit(cfgs[i]); err != nil {
			return err
		}
		if err := m.PhaseMSRInit(cfgs[i]); err != nil {
			return err
		}
		if err := m.PhaseMemoryInit(cfgs[i]); err != nil {
			return err
		}
		m.PhaseExitCAR()
		if err := m.PhaseSkipNCEnumeration(); err != nil {
			return err
		}
		m.PhaseLoadOS()
	}
	return nil
}
