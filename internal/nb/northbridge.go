package nb

import (
	"fmt"
	"sync/atomic"

	"repro/internal/ht"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Params are the pipeline timing parameters of the northbridge.
type Params struct {
	XBarService     sim.Time // crossbar occupancy per packet
	HopLatency      sim.Time // SRQ + XBar pipeline latency per traversal
	IOBridgeLatency sim.Time // coherent <-> non-coherent conversion
	Mem             MemParams
}

// DefaultParams models a Shanghai-class northbridge: ~50 ns per hop
// total once link serialization and flight are added (paper §III).
func DefaultParams() Params {
	return Params{
		XBarService:     4 * sim.Nanosecond,
		HopLatency:      13 * sim.Nanosecond,
		IOBridgeLatency: 18 * sim.Nanosecond,
		Mem:             DefaultMemParams(),
	}
}

// DecisionKind classifies the outcome of an address decode.
type DecisionKind int

const (
	// DecideLocalDRAM delivers to the on-chip memory controller.
	DecideLocalDRAM DecisionKind = iota
	// DecideDirectLink forwards out a link named directly by an MMIO
	// base/limit pair owned by the local node — no routing-table lookup.
	// This is the path the TCCluster NodeID-0 trick rides (paper §IV.C).
	DecideDirectLink
	// DecideRouteLink forwards out a link obtained by indexing the
	// routing table with the range's home NodeID.
	DecideRouteLink
	// DecideMasterAbort means no range decoded the address.
	DecideMasterAbort
)

func (k DecisionKind) String() string {
	switch k {
	case DecideLocalDRAM:
		return "local-dram"
	case DecideDirectLink:
		return "direct-link"
	case DecideRouteLink:
		return "route-link"
	default:
		return "master-abort"
	}
}

// Decision is the decoded routing outcome for one address.
type Decision struct {
	Kind    DecisionKind
	Link    uint8 // meaningful for DirectLink/RouteLink
	DstNode uint8 // home node of the decoded range
	MMIO    bool  // decoded by an MMIO range (vs DRAM)
}

// Counters aggregates the error and traffic counters of one northbridge.
type Counters struct {
	MasterAborts    uint64
	OrphanResponses uint64
	TagExhausted    uint64
	DeadLinkDrops   uint64 // decode pointed at an unwired/down link
	PktsFromCPU     uint64
	PktsFromLinks   uint64
	PktsToDRAM      uint64
	PktsForwarded   uint64
	BridgedPackets  uint64 // crossed the coherent/non-coherent IO bridge
	Broadcasts      uint64
}

// counters is the live, race-safe backing store for Counters. The
// simulation increments these from engine callbacks while the monitor's
// HTTP scrape path reads Counters() from its own goroutine; atomics keep
// that tear-free without a lock in the routing pipeline (same pattern as
// ht.portCounters).
type counters struct {
	masterAborts    atomic.Uint64
	orphanResponses atomic.Uint64
	tagExhausted    atomic.Uint64
	deadLinkDrops   atomic.Uint64
	pktsFromCPU     atomic.Uint64
	pktsFromLinks   atomic.Uint64
	pktsToDRAM      atomic.Uint64
	pktsForwarded   atomic.Uint64
	bridgedPackets  atomic.Uint64
	broadcasts      atomic.Uint64
}

// Northbridge is one Opteron node's routing and memory complex.
type Northbridge struct {
	eng  *sim.Engine
	name string
	par  Params

	nodeID uint8
	links  [MaxLinks]*ht.Port
	dram   [NumDRAMRanges]DRAMRange
	mmio   [NumMMIORanges]MMIORange
	route  [MaxNodes]RouteEntry

	xbar  sim.Server
	mc    *MemoryController
	match *MatchTable
	cnt   counters

	watches     []writeWatch       // store-visibility ranges (see WatchWrites)
	onBroadcast func(p *ht.Packet) // delivered broadcast (interrupts)
	tracer      trace.Tracer
	traceID     int
	prof        *prof.NodeProf

	// pool recycles CPU-originated requests and TgtDones. Serial runs
	// give every northbridge its own pool; parallel runs inject one
	// shared pool per partition (SetPool), and exile receives terminal
	// packets whose home pool lives in another partition — they are
	// repatriated by the coordinator at the next window barrier instead
	// of being released into a pool that partition may be touching.
	pool    *ht.PacketPool
	exile   func(*ht.Packet)
	recFree *nbRec // free list of pipeline-stage records
	cwFree  *cwRec // free list of posted-write completion records
}

// cwRec adapts a CPUWrite completion callback to a packet's OnAccept
// hook. Records are pooled and the fire closure is built once per
// record, so a steady-state posted store allocates nothing here.
type cwRec struct {
	next       *cwRec
	completion func(error)
	fire       func()
}

func (n *Northbridge) getCW() *cwRec {
	rec := n.cwFree
	if rec == nil {
		rec = &cwRec{}
		rec.fire = func() {
			cb := rec.completion
			rec.completion = nil
			rec.next = n.cwFree
			n.cwFree = rec
			cb(nil)
		}
		return rec
	}
	n.cwFree = rec.next
	rec.next = nil
	return rec
}

// Event opcodes carried in sim.EventArg.I; arg.Ptr is always an *nbRec.
const (
	nbOpDispatch  int64 = iota // xbar + hop traversal done: route the packet
	nbOpInject                 // CPU packet clears the SRQ: route, then done
	nbOpDRAM                   // IO-bridge delay done: access the controller
	nbOpLocalRead              // CPU-local read reaches the controller
)

// nbRec carries one packet (or read request) through a pipeline-stage
// event, or a remote CPU read through the matching table. Records are
// pooled per northbridge; the callback fields are built once per record
// (rdMatch on the record's first remote read), capture only the record
// pointer, and survive recycling — so a steady-state DRAM delivery or
// flash read allocates nothing.
type nbRec struct {
	next    *nbRec
	pkt     *ht.Packet
	done    func()
	from    int
	bridged bool // IO-bridge delay pre-paid in the dispatch event time
	addr    uint64
	nBytes  int
	tag     uint8
	srcNode int
	rdDst   []byte // CPU read destination (caller-owned)
	rdCB    func([]byte, error)

	wrVisible func(error)         // posted-write visibility in DRAM
	npVisible func(error)         // non-posted write visibility -> TgtDone
	rdDone    func([]byte, error) // DRAM read completion -> RdResp
	rdMatch   func(*ht.Packet)    // remote CPU read's response -> rdDst
}

func (n *Northbridge) getRec() *nbRec {
	rec := n.recFree
	if rec == nil {
		rec = &nbRec{}
		rec.wrVisible = func(err error) { n.writeVisible(rec, err) }
		rec.npVisible = func(err error) { n.npWriteVisible(rec, err) }
		rec.rdDone = func(data []byte, err error) { n.dramReadDone(rec, data, err) }
	} else {
		n.recFree = rec.next
		rec.next = nil
	}
	return rec
}

func (n *Northbridge) putRec(rec *nbRec) {
	rec.pkt, rec.done, rec.rdDst, rec.rdCB = nil, nil, nil, nil
	rec.next = n.recFree
	n.recFree = rec
}

// OnEvent dispatches the northbridge's typed pipeline events.
func (n *Northbridge) OnEvent(_ *sim.Engine, arg sim.EventArg) {
	rec := arg.Ptr.(*nbRec)
	switch arg.I {
	case nbOpDispatch:
		pkt, done, from, bridged := rec.pkt, rec.done, rec.from, rec.bridged
		rec.bridged = false
		n.putRec(rec)
		if bridged {
			// The ingress path predicted local DRAM over a non-coherent
			// link and folded the IO-bridge delay into this event's time.
			// Re-decode in case the address map changed while the packet
			// was in the crossbar; on a mispredict, fall back to the
			// ordinary dispatch (the stale bridge delay is the cost of a
			// mid-flight reconfiguration, not a correctness issue).
			if d := n.DecodeAddress(pkt.Addr); d.Kind == DecideLocalDRAM {
				n.deliverToDRAM(from, pkt, done, true)
				return
			}
		}
		n.dispatch(from, pkt, done)
	case nbOpInject:
		pkt, done := rec.pkt, rec.done
		n.putRec(rec)
		n.dispatch(-1, pkt, nil)
		if done != nil {
			done()
		}
	case nbOpDRAM:
		n.dramAccess(rec)
	case nbOpLocalRead:
		addr, dst, cb := rec.addr, rec.rdDst, rec.rdCB
		n.putRec(rec)
		n.mc.Read(addr, dst, cb)
	}
}

// New creates a northbridge with memSize bytes of local DRAM. The NodeID
// register holds ResetNodeID (7) until firmware assigns one, exactly as
// the enumeration algorithm in §IV.E expects.
func New(eng *sim.Engine, name string, memSize uint64, par Params) *Northbridge {
	n := &Northbridge{
		eng:    eng,
		name:   name,
		par:    par,
		nodeID: ResetNodeID,
		match:  &MatchTable{},
		pool:   &ht.PacketPool{},
	}
	n.mc = NewMemoryController(eng, memSize, par.Mem)
	return n
}

// SetEngine rebinds the northbridge (and its memory controller) onto a
// partition engine. Called while the simulation is quiescent, before a
// parallel run starts.
func (n *Northbridge) SetEngine(e *sim.Engine) {
	n.eng = e
	n.mc.SetEngine(e)
}

// SetPool replaces the packet pool with a shared per-partition pool.
func (n *Northbridge) SetPool(pp *ht.PacketPool) { n.pool = pp }

// SetExile installs the partition's exile hook for terminal packets
// owned by another partition's pool (see the pool field).
func (n *Northbridge) SetExile(fn func(*ht.Packet)) { n.exile = fn }

// Pool returns the packet pool currently in use (tests inspect stats).
func (n *Northbridge) Pool() *ht.PacketPool { return n.pool }

// recycle is the terminal-release point for packets consumed by this
// northbridge. Packets homed in this partition's pool (or unpooled)
// release directly; foreign pooled packets go to the exile list.
func (n *Northbridge) recycle(p *ht.Packet) {
	if n.exile != nil && p.Pooled() && !p.FromPool(n.pool) {
		n.exile(p)
		return
	}
	p.Release()
}

// Name returns the diagnostic name of this node.
func (n *Northbridge) Name() string { return n.name }

// NodeID returns the current NodeID register value.
func (n *Northbridge) NodeID() uint8 { return n.nodeID }

// SetNodeID programs the NodeID register (firmware enumeration, or the
// TCCluster everyone-is-zero configuration).
func (n *Northbridge) SetNodeID(id uint8) error {
	if id >= MaxNodes {
		return fmt.Errorf("nb: NodeID %d exceeds 3 bits", id)
	}
	n.nodeID = id
	return nil
}

// Counters returns a copy of the counters. It is safe to call
// concurrently with a running simulation: each counter is loaded
// atomically.
func (n *Northbridge) Counters() Counters {
	return Counters{
		MasterAborts:    n.cnt.masterAborts.Load(),
		OrphanResponses: n.cnt.orphanResponses.Load(),
		TagExhausted:    n.cnt.tagExhausted.Load(),
		DeadLinkDrops:   n.cnt.deadLinkDrops.Load(),
		PktsFromCPU:     n.cnt.pktsFromCPU.Load(),
		PktsFromLinks:   n.cnt.pktsFromLinks.Load(),
		PktsToDRAM:      n.cnt.pktsToDRAM.Load(),
		PktsForwarded:   n.cnt.pktsForwarded.Load(),
		BridgedPackets:  n.cnt.bridgedPackets.Load(),
		Broadcasts:      n.cnt.broadcasts.Load(),
	}
}

// MemController returns the node's memory controller.
func (n *Northbridge) MemController() *MemoryController { return n.mc }

// MatchTable returns the response-matching table (tests and the
// cluster's quiescence check inspect it).
func (n *Northbridge) MatchTable() *MatchTable { return n.match }

// writeWatch is one registered store-visibility range: fn fires
// whenever a store overlapping [lo, hi) (global physical addresses)
// becomes visible in this node's DRAM. A nil fn marks a free slot.
type writeWatch struct {
	lo, hi uint64
	fn     func(addr uint64, nBytes int)
}

// WatchWrites registers fn on [lo, hi): it fires, inside the store's
// visibility event, with the store's address and size every time a
// write overlapping the range lands in local DRAM. This is the
// northbridge's one store-visibility hook: message channels watch their
// rings (a doorbell), experiments watch [0, ^0) to time arrivals. It
// returns an id for Unwatch.
func (n *Northbridge) WatchWrites(lo, hi uint64, fn func(addr uint64, nBytes int)) int {
	for i := range n.watches {
		if n.watches[i].fn == nil {
			n.watches[i] = writeWatch{lo: lo, hi: hi, fn: fn}
			return i
		}
	}
	n.watches = append(n.watches, writeWatch{lo: lo, hi: hi, fn: fn})
	return len(n.watches) - 1
}

// Unwatch removes a watch registered with WatchWrites; its slot is
// reused by the next WatchWrites.
func (n *Northbridge) Unwatch(id int) {
	if id >= 0 && id < len(n.watches) {
		n.watches[id] = writeWatch{}
	}
}

// notifyWatches fires every watch whose range a visible store touches.
func (n *Northbridge) notifyWatches(addr uint64, nBytes int) {
	end := addr + uint64(nBytes)
	for i := range n.watches {
		w := &n.watches[i]
		if w.fn != nil && addr < w.hi && end > w.lo {
			w.fn(addr, nBytes)
		}
	}
}

// SetBroadcastHook installs the local broadcast consumer (the kernel's
// interrupt entry point).
func (n *Northbridge) SetBroadcastHook(fn func(*ht.Packet)) { n.onBroadcast = fn }

// SetTracer installs the cluster-wide observability tracer, identifying
// this northbridge as Node=id in emitted events. Nil disables tracing;
// every emission site is a single nil check.
func (n *Northbridge) SetTracer(tr trace.Tracer, id int) {
	n.tracer = tr
	n.traceID = id
}

// SetProfiler installs this node's phase-attribution handle (and shares
// it with the memory controller). Nil disables profiling; every
// observation site is a single nil check.
func (n *Northbridge) SetProfiler(np *prof.NodeProf) {
	n.prof = np
	n.mc.prof = np
	if np != nil {
		np.SetConst(prof.NodeNBHop, n.par.HopLatency)
		np.SetConst(prof.NodeNBXbar, n.par.XBarService)
		np.SetConst(prof.NodeNBBridge, n.par.IOBridgeLatency)
		// Memory-controller fast path: an uncontended 64-byte access.
		n.mc.profD = n.mc.xferTime(64) + n.mc.par.AccessLatency
		np.SetConst(prof.NodeMemService, n.mc.profD)
	}
}

// AttachLink wires a link end into link register idx and installs the
// receive sink.
func (n *Northbridge) AttachLink(idx int, p *ht.Port) error {
	if idx < 0 || idx >= MaxLinks {
		return fmt.Errorf("nb: link index %d out of range", idx)
	}
	if n.links[idx] != nil {
		return fmt.Errorf("nb: link %d already attached", idx)
	}
	n.links[idx] = p
	i := idx
	p.SetSink(func(pkt *ht.Packet, done func()) { n.receive(i, pkt, done) })
	return nil
}

// LinkPort returns the port attached at idx (nil if unwired).
func (n *Northbridge) LinkPort(idx int) *ht.Port { return n.links[idx] }

// LinkIsCoherent reports whether link idx trained coherent.
func (n *Northbridge) LinkIsCoherent(idx int) bool {
	p := n.links[idx]
	return p != nil && p.Link().Type() == ht.TypeCoherent
}

// SetDRAMRange programs DRAM base/limit pair i.
func (n *Northbridge) SetDRAMRange(i int, r DRAMRange) error {
	if i < 0 || i >= NumDRAMRanges {
		return fmt.Errorf("nb: DRAM range index %d out of range", i)
	}
	if err := r.Validate(); err != nil {
		return err
	}
	n.dram[i] = r
	return nil
}

// SetMMIORange programs MMIO base/limit pair i.
func (n *Northbridge) SetMMIORange(i int, r MMIORange) error {
	if i < 0 || i >= NumMMIORanges {
		return fmt.Errorf("nb: MMIO range index %d out of range", i)
	}
	if err := r.Validate(); err != nil {
		return err
	}
	n.mmio[i] = r
	return nil
}

// SetRoute programs the routing-table row for destination node id.
func (n *Northbridge) SetRoute(id uint8, e RouteEntry) error {
	if id >= MaxNodes {
		return fmt.Errorf("nb: route index %d out of range", id)
	}
	n.route[id] = e
	return nil
}

// DRAMRangeAt returns DRAM pair i (register read-back).
func (n *Northbridge) DRAMRangeAt(i int) DRAMRange { return n.dram[i] }

// MMIORangeAt returns MMIO pair i (register read-back).
func (n *Northbridge) MMIORangeAt(i int) MMIORange { return n.mmio[i] }

// RouteAt returns the routing-table row for node id.
func (n *Northbridge) RouteAt(id uint8) RouteEntry { return n.route[id] }

// DecodeAddress performs the two-stage routing lookup of §IV.C: DRAM
// ranges first, then MMIO ranges; the home NodeID either selects the
// local memory controller, indexes the routing table, or — for MMIO
// owned by the local node — names an egress link directly.
func (n *Northbridge) DecodeAddress(a uint64) Decision {
	for i := range n.dram {
		r := &n.dram[i]
		if r.Contains(a) {
			if r.DstNode == n.nodeID {
				return Decision{Kind: DecideLocalDRAM, DstNode: r.DstNode}
			}
			return Decision{Kind: DecideRouteLink, Link: n.route[r.DstNode].ReqLink,
				DstNode: r.DstNode}
		}
	}
	for i := range n.mmio {
		r := &n.mmio[i]
		if r.Contains(a) {
			if r.DstNode == n.nodeID {
				return Decision{Kind: DecideDirectLink, Link: r.DstLink,
					DstNode: r.DstNode, MMIO: true}
			}
			return Decision{Kind: DecideRouteLink, Link: n.route[r.DstNode].ReqLink,
				DstNode: r.DstNode, MMIO: true}
		}
	}
	return Decision{Kind: DecideMasterAbort}
}

// ---- packet plumbing ---------------------------------------------------

// receive handles a packet arriving from link idx. done releases the
// link-level receive buffer (flow-control credit) once the packet has
// drained out of the northbridge.
//
// The crossbar traversal, routing hop and — for the dominant TCCluster
// path, a request over a non-coherent link decoding to local DRAM —
// the IO-bridge conversion are fused into a single pipeline event at
// the final timestamp. The per-stage latencies still appear in the
// profiler budgets as counted constants, so attribution is unchanged;
// only the intermediate event-queue traffic disappears.
func (n *Northbridge) receive(idx int, pkt *ht.Packet, done func()) {
	n.cnt.pktsFromLinks.Add(1)
	now := n.eng.Now()
	_, at := n.xbar.Schedule(now, n.par.XBarService)
	if np := n.prof; np != nil {
		if at == now+n.par.XBarService {
			np.AddFastXbar() // uncontended pass: xbar service + routing hop
		} else {
			np.Observe(prof.NodeNBXbar, at-now)
			np.AddConst(prof.NodeNBHop)
		}
	}
	rec := n.getRec()
	rec.pkt, rec.done, rec.from = pkt, done, idx
	t := at + n.par.HopLatency
	if pkt.Cmd != ht.CmdBroadcast && pkt.Cmd.VC() != ht.VCResponse && !n.LinkIsCoherent(idx) {
		if d := n.DecodeAddress(pkt.Addr); d.Kind == DecideLocalDRAM {
			rec.bridged = true
			t += n.par.IOBridgeLatency
		}
	}
	n.eng.Schedule(t, n, sim.EventArg{Ptr: rec, I: nbOpDispatch})
}

// InjectFromCPU enters a CPU-originated packet into the system request
// queue. done, if non-nil, is invoked when the packet has left the SRQ
// (posted semantics).
func (n *Northbridge) InjectFromCPU(pkt *ht.Packet, done func()) {
	n.cnt.pktsFromCPU.Add(1)
	pkt.SrcNode = int(n.nodeID)
	now := n.eng.Now()
	_, at := n.xbar.Schedule(now, n.par.XBarService)
	if np := n.prof; np != nil {
		if at == now+n.par.XBarService {
			np.AddFastXbar() // uncontended pass: xbar service + routing hop
		} else {
			np.Observe(prof.NodeNBXbar, at-now)
			np.AddConst(prof.NodeNBHop)
		}
	}
	rec := n.getRec()
	rec.pkt, rec.done = pkt, done
	n.eng.Schedule(at+n.par.HopLatency, n, sim.EventArg{Ptr: rec, I: nbOpInject})
}

// dispatch routes one packet. fromLink is -1 for CPU-originated traffic.
func (n *Northbridge) dispatch(fromLink int, pkt *ht.Packet, done func()) {
	switch {
	case pkt.Cmd == ht.CmdBroadcast:
		n.handleBroadcast(fromLink, pkt, done)
	case pkt.Cmd.VC() == ht.VCResponse:
		n.handleResponse(fromLink, pkt, done)
	default:
		n.handleRequest(fromLink, pkt, done)
	}
}

func (n *Northbridge) handleRequest(fromLink int, pkt *ht.Packet, done func()) {
	d := n.DecodeAddress(pkt.Addr)
	switch d.Kind {
	case DecideLocalDRAM:
		n.deliverToDRAM(fromLink, pkt, done, false)
	case DecideDirectLink, DecideRouteLink:
		n.forward(fromLink, int(d.Link), pkt, done)
	default:
		n.cnt.masterAborts.Add(1)
		if n.tracer != nil {
			n.tracer.Emit(trace.Event{
				At: n.eng.Now(), Kind: trace.KindMasterAbort,
				Node: n.traceID, Link: -1, Label: pkt.String(),
			})
		}
		pkt.Accept() // never hold a WC buffer hostage to a decode fault
		if done != nil {
			done()
		}
		n.recycle(pkt) // terminal: the request dies here
	}
}

// deliverToDRAM lands a request on the local memory controller, crossing
// the IO bridge first when it arrived over a non-coherent link. prepaid
// means the ingress path already folded the bridge delay into the
// dispatch event's time, so the controller is accessed in this event —
// CPU-originated and coherent-link requests (delay zero) take the same
// inline path.
func (n *Northbridge) deliverToDRAM(fromLink int, pkt *ht.Packet, done func(), prepaid bool) {
	n.cnt.pktsToDRAM.Add(1)
	pkt.Accept() // data has left the store path into the memory complex
	fromIO := fromLink >= 0 && !n.LinkIsCoherent(fromLink)
	if fromIO {
		// ncHT packets are converted to coherent packets by the IO
		// bridge before they may touch memory (paper §IV.C).
		n.cnt.bridgedPackets.Add(1)
		if np := n.prof; np != nil {
			np.AddConst(prof.NodeNBBridge)
		}
	}
	rec := n.getRec()
	rec.pkt, rec.done = pkt, done
	if fromIO && !prepaid {
		n.eng.ScheduleAfter(n.par.IOBridgeLatency, n, sim.EventArg{Ptr: rec, I: nbOpDRAM})
		return
	}
	n.dramAccess(rec)
}

// dramAccess lands rec's request on the memory controller. The packet's
// fields the completion needs (address, size, tag, source) are copied
// into the record, and the controller copies payload data synchronously,
// so pooled requests are released here — their terminal point — while
// the completion callbacks ride the record.
func (n *Northbridge) dramAccess(rec *nbRec) {
	pkt, done := rec.pkt, rec.done
	switch pkt.Cmd {
	case ht.CmdWrPosted, ht.CmdCWrBlk:
		// The link receive buffer recycles once the memory
		// controller's port consumes the data; visibility (and the
		// poller wake-up) waits the full DRAM latency.
		rec.addr, rec.nBytes = pkt.Addr, len(pkt.Data)
		n.mc.WriteAccepted(pkt.Addr, pkt.Data, done, rec.wrVisible)
		n.recycle(pkt)
	case ht.CmdWrNP:
		rec.addr, rec.nBytes = pkt.Addr, len(pkt.Data)
		rec.tag, rec.srcNode = pkt.SrcTag, pkt.SrcNode
		n.mc.Write(pkt.Addr, pkt.Data, rec.npVisible)
		n.recycle(pkt)
	case ht.CmdRdSized, ht.CmdCRdBlk:
		rec.addr = pkt.Addr
		rec.nBytes = (int(pkt.Count) + 1) * ht.DwordBytes
		rec.tag, rec.srcNode = pkt.SrcTag, pkt.SrcNode
		// Fresh buffer: the read response adopts it and carries it away.
		n.mc.Read(pkt.Addr, make([]byte, rec.nBytes), rec.rdDone)
		n.recycle(pkt)
	case ht.CmdFlush, ht.CmdFence:
		// Posted-channel ordering markers: the model's posted channel
		// is already strictly ordered, so these complete immediately.
		n.putRec(rec)
		if done != nil {
			done()
		}
		n.recycle(pkt)
	default:
		n.putRec(rec)
		n.cnt.masterAborts.Add(1)
		if done != nil {
			done()
		}
		n.recycle(pkt)
	}
}

// writeVisible completes a posted write: the bits are in DRAM.
func (n *Northbridge) writeVisible(rec *nbRec, err error) {
	addr, nBytes := rec.addr, rec.nBytes
	n.putRec(rec)
	if err != nil {
		n.cnt.masterAborts.Add(1)
	} else if len(n.watches) > 0 {
		n.notifyWatches(addr, nBytes)
	}
}

// npWriteVisible completes a non-posted write: answer with TgtDone.
func (n *Northbridge) npWriteVisible(rec *nbRec, err error) {
	if err == nil && len(n.watches) > 0 {
		n.notifyWatches(rec.addr, rec.nBytes)
	}
	resp := n.pool.TgtDone(rec.tag)
	resp.SrcNode = int(n.nodeID)
	resp.DstNode = rec.srcNode
	done := rec.done
	n.putRec(rec)
	n.routeResponse(resp)
	if done != nil {
		done()
	}
}

// dramReadDone completes a DRAM read: answer with a pooled read
// response that adopts the buffer dramAccess allocated — the payload
// escapes to whatever callback the matching table holds, so recycling
// the packet detaches it (ownership travels on with the data).
func (n *Northbridge) dramReadDone(rec *nbRec, data []byte, err error) {
	done := rec.done
	if err != nil {
		n.putRec(rec)
		n.cnt.masterAborts.Add(1)
		if done != nil {
			done()
		}
		return
	}
	resp, rerr := n.pool.ReadResponse(rec.tag, data)
	if rerr != nil {
		panic(rerr) // sizes were validated on the request
	}
	resp.SrcNode = int(n.nodeID)
	resp.DstNode = rec.srcNode
	n.putRec(rec)
	n.routeResponse(resp)
	if done != nil {
		done()
	}
}

// routeResponse sends a response toward DstNode. Responses are routed
// purely by the NodeID bound to the tag — there is no address. When the
// destination is (believed to be) the local node, the response matching
// table completes the transaction; a stranger's response orphans. That
// asymmetry is why TCCluster cannot carry reads (paper §IV.A).
func (n *Northbridge) routeResponse(resp *ht.Packet) {
	if uint8(resp.DstNode) == n.nodeID {
		if n.match.Complete(resp) != nil {
			n.cnt.orphanResponses.Add(1)
		}
		// Terminal: the matching callback has consumed the response.
		// A DRAM read response adopted its payload, so recycling returns
		// only the struct — the Data the callback may retain is never
		// reclaimed by the pool. A flash read response owns its buffer,
		// which CPURead's callback copies out before this release.
		n.recycle(resp)
		return
	}
	link := n.route[resp.DstNode&0x7].RespLink
	n.forward(-1, int(link), resp, nil)
}

func (n *Northbridge) handleResponse(fromLink int, resp *ht.Packet, done func()) {
	n.routeResponse(resp)
	if done != nil {
		done()
	}
}

// handleBroadcast delivers the broadcast locally and fans it out along
// the spanning tree configured for the source node, never back out the
// arrival link. If the TCCluster firmware forgets to prune TCCluster
// links from the broadcast routes, interrupts leak across the cluster —
// the failure the custom kernel in §VI exists to prevent.
func (n *Northbridge) handleBroadcast(fromLink int, pkt *ht.Packet, done func()) {
	n.cnt.broadcasts.Add(1)
	if n.onBroadcast != nil {
		n.onBroadcast(pkt)
	}
	src := uint8(pkt.SrcNode) & 0x7
	mask := n.route[src].BcastLinks
	for l := 0; l < MaxLinks; l++ {
		if mask&(1<<l) == 0 || l == fromLink {
			continue
		}
		// Fan out a private pooled copy per egress: a broadcast crossing
		// a partition boundary must not share OnAccept bookkeeping with
		// copies still in flight on this side.
		n.forward(fromLink, l, n.pool.CopyOf(pkt), nil)
	}
	if done != nil {
		done()
	}
	// Terminal: the local delivery hook extracted what it needed and
	// every egress took its own copy.
	n.recycle(pkt)
}

// forward sends pkt out link idx. The ingress receive buffer is held
// until the egress port ACCEPTS the packet into serialization (credits
// granted), so backpressure propagates hop by hop through transit
// nodes — a congested egress link fills the ingress buffers behind it.
// done may be nil (CPU-originated and response traffic holds no ingress
// buffer); the wrapper closure is only built when both an upstream
// OnAccept and a credit release must fire.
func (n *Northbridge) forward(fromLink, idx int, pkt *ht.Packet, done func()) {
	prev := pkt.OnAccept
	accept := prev
	if done != nil {
		if prev != nil {
			accept = func() { prev(); done() }
		} else {
			accept = done
		}
	}
	if idx < 0 || idx >= MaxLinks || n.links[idx] == nil {
		n.cnt.deadLinkDrops.Add(1)
		if accept != nil {
			accept()
		}
		n.recycle(pkt) // terminal: dropped (no-op for broadcast copies)
		return
	}
	pkt.OnAccept = accept
	if n.links[idx].Send(pkt) != nil {
		// A dead egress link master-aborts the packet: the posted store
		// already completed at its source (the fabric is write-only, so
		// nobody is waiting for a response), the bytes just never arrive.
		n.cnt.deadLinkDrops.Add(1)
		n.cnt.masterAborts.Add(1)
		if n.tracer != nil {
			n.tracer.Emit(trace.Event{
				At: n.eng.Now(), Kind: trace.KindMasterAbort,
				Node: n.traceID, Link: idx, Label: pkt.String(),
			})
		}
		pkt.Accept()
		n.recycle(pkt) // terminal: dropped
	} else {
		n.cnt.pktsForwarded.Add(1)
		if n.tracer != nil && fromLink >= 0 {
			// Only transit traffic is interesting here; CPU-originated
			// packets already appear as link-level sends.
			n.tracer.Emit(trace.Event{
				At: n.eng.Now(), Kind: trace.KindForward,
				Node: n.traceID, Link: -1, Src: fromLink, Dst: idx,
			})
		}
	}
}

// ---- CPU-facing operations ---------------------------------------------

// CPUWrite issues a sized write from the local cores. Posted writes
// complete (for the store pipeline) once accepted by the SRQ; non-posted
// writes invoke completion when TgtDone returns. data is copied into a
// pooled packet before CPUWrite returns, so the caller may reuse its
// buffer immediately.
func (n *Northbridge) CPUWrite(addr uint64, data []byte, posted bool, completion func(error)) {
	if posted {
		pkt, err := n.pool.PostedWrite(addr, data)
		if err != nil {
			completion(err)
			return
		}
		// Posted completion is downstream acceptance: the data left the
		// store path toward a link serializer or the local memory
		// complex. This is the point a write-combining buffer drains.
		rec := n.getCW()
		rec.completion = completion
		pkt.OnAccept = rec.fire
		n.InjectFromCPU(pkt, nil)
		return
	}
	tag, err := n.match.Alloc(func(*ht.Packet) { completion(nil) })
	if err != nil {
		n.cnt.tagExhausted.Add(1)
		completion(err)
		return
	}
	pkt, err := n.pool.NonPostedWrite(addr, data)
	if err != nil {
		completion(err)
		return
	}
	pkt.SrcTag = tag
	n.InjectFromCPU(pkt, nil)
}

// CPURead issues a sized read of len(dst) bytes from the local cores
// into dst, which the caller owns; on success cb receives dst. For local
// DRAM the memory controller reads straight into dst. For anything
// remote, a tag is allocated and the response — copied into dst on
// arrival — must find its way home, which it cannot across a TCCluster
// link, making the read hang until HangCheck notices. Neither path
// allocates in steady state: the remote one holds a pooled record whose
// matching callback is built once.
func (n *Northbridge) CPURead(addr uint64, dst []byte, cb func([]byte, error)) {
	d := n.DecodeAddress(addr)
	if d.Kind == DecideLocalDRAM {
		now := n.eng.Now()
		_, at := n.xbar.Schedule(now, n.par.XBarService)
		if np := n.prof; np != nil {
			if at == now+n.par.XBarService {
				np.AddFastXbar() // uncontended pass: xbar service + routing hop
			} else {
				np.Observe(prof.NodeNBXbar, at-now)
				np.AddConst(prof.NodeNBHop)
			}
		}
		rec := n.getRec()
		rec.addr, rec.rdDst, rec.rdCB = addr, dst, cb
		n.eng.Schedule(at+n.par.HopLatency, n, sim.EventArg{Ptr: rec, I: nbOpLocalRead})
		return
	}
	rec := n.getRec()
	rec.rdDst, rec.rdCB = dst, cb
	if rec.rdMatch == nil {
		rec.rdMatch = func(resp *ht.Packet) { n.remoteReadDone(rec, resp) }
	}
	tag, err := n.match.Alloc(rec.rdMatch)
	if err != nil {
		n.putRec(rec)
		n.cnt.tagExhausted.Add(1)
		cb(nil, err)
		return
	}
	pkt, err := n.pool.Read(addr, len(dst), tag)
	if err != nil {
		cb(nil, err)
		return
	}
	n.InjectFromCPU(pkt, nil)
}

// remoteReadDone completes a remote CPURead: the response, sized by
// the request, is copied into the caller's buffer before its terminal
// consumer recycles it.
func (n *Northbridge) remoteReadDone(rec *nbRec, resp *ht.Packet) {
	dst, cb := rec.rdDst, rec.rdCB
	n.putRec(rec)
	copy(dst, resp.Data)
	cb(dst, nil)
}

// CPUBroadcast issues a broadcast (interrupt-class) packet from the
// local cores.
func (n *Northbridge) CPUBroadcast(vector uint64) {
	pkt := n.pool.Broadcast(vector &^ 0x3)
	n.InjectFromCPU(pkt, nil)
}
