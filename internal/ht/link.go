package ht

import (
	"fmt"
	"sync/atomic"

	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Speed is an HT link clock in MHz. Signaling is DDR, so a lane carries
// 2*Speed megabits per second: HT800 = 1.6 Gbit/s per lane, the rate the
// paper's HTX-cable prototype was limited to; HT2600 = 5.2 Gbit/s, the
// processor's ceiling.
type Speed int

// Standard link clocks. ColdResetSpeed is what every link trains to out
// of cold reset before firmware reprograms it (HT spec: 200 MHz).
const (
	HT200  Speed = 200
	HT400  Speed = 400
	HT600  Speed = 600
	HT800  Speed = 800
	HT1000 Speed = 1000
	HT1200 Speed = 1200
	HT1600 Speed = 1600
	HT2000 Speed = 2000
	HT2400 Speed = 2400
	HT2600 Speed = 2600

	ColdResetSpeed = HT200
	ColdResetWidth = 8
)

// GbitPerLane returns the per-lane signaling rate in Gbit/s.
func (s Speed) GbitPerLane() float64 { return 2 * float64(s) / 1000 }

func (s Speed) String() string { return fmt.Sprintf("HT%d", int(s)) }

// crcNum/crcDen: HT3 inserts a 32-bit periodic CRC into every 512
// bit-times of each lane, a ~0.8% overhead applied to all serialization.
const (
	crcNum = 516
	crcDen = 512
)

// DeviceClass is what a link end identifies itself as during training.
// Two processors train coherent unless one forces non-coherent mode via
// the debug register (the TCCluster trick, paper §IV.B).
type DeviceClass int

const (
	ClassProcessor DeviceClass = iota
	ClassIODevice              // southbridge, HTX card, tunnel ...
)

func (c DeviceClass) String() string {
	if c == ClassProcessor {
		return "processor"
	}
	return "io-device"
}

// LinkType is the trained personality of a link.
type LinkType int

const (
	TypeDown LinkType = iota
	TypeCoherent
	TypeNonCoherent
)

func (t LinkType) String() string {
	switch t {
	case TypeCoherent:
		return "coherent"
	case TypeNonCoherent:
		return "non-coherent"
	default:
		return "down"
	}
}

// LinkState is the training state of the physical link.
type LinkState int

const (
	StateDown LinkState = iota
	StateTraining
	StateActive
)

func (s LinkState) String() string {
	switch s {
	case StateTraining:
		return "training"
	case StateActive:
		return "active"
	default:
		return "down"
	}
}

// LinkHealth is the operational condition of a link as a fault campaign
// (and the monitor) sees it — a projection of the training state machine
// plus the runtime error model: alive → degraded → dead → retraining →
// alive. Training state says whether the link *can* carry packets;
// health additionally says how well.
type LinkHealth int

const (
	HealthAlive LinkHealth = iota
	HealthDegraded
	HealthDead
	HealthRetraining
)

func (h LinkHealth) String() string {
	switch h {
	case HealthAlive:
		return "alive"
	case HealthDegraded:
		return "degraded"
	case HealthRetraining:
		return "retraining"
	default:
		return "dead"
	}
}

// LinkConfig describes the fixed physical properties of a link.
type LinkConfig struct {
	AClass, BClass DeviceClass
	MaxWidth       int      // lanes physically wired (8 or 16; 32 = dual link)
	Flight         sim.Time // propagation delay (trace or cable)
	TrainTime      sim.Time // duration of one training sequence
	ABuffers       BufferConfig
	BBuffers       BufferConfig

	// Fault model: HT defines link-level fault tolerance — periodic CRC
	// windows detect corruption and the transmitter replays from its
	// retry buffer (HT3 link-level retry). ErrorRate is the probability
	// that one packet's serialization is corrupted; RetryPenalty is the
	// resynchronize-and-replay cost per corrupted attempt. The paper's
	// HTX cable ran below its rated speed precisely because of signal
	// integrity (§VI), which is what this models.
	ErrorRate    float64
	RetryPenalty sim.Time
	ErrorSeed    uint64
}

// DefaultLinkConfig returns the configuration of an on-board 16-lane
// processor-to-processor link with ~5 ns of trace flight time.
func DefaultLinkConfig(a, b DeviceClass) LinkConfig {
	return LinkConfig{
		AClass:    a,
		BClass:    b,
		MaxWidth:  16,
		Flight:    5 * sim.Nanosecond,
		TrainTime: 1 * sim.Microsecond,
		ABuffers:  DefaultBufferConfig(),
		BBuffers:  DefaultBufferConfig(),
	}
}

// PortStats counts traffic through one link end.
type PortStats struct {
	PktsSent     uint64
	BytesSent    uint64 // wire bytes (headers + payload, before CRC scaling)
	PktsRecv     uint64
	BytesRecv    uint64
	PerVCSent    [NumVCs]uint64
	CreditStalls uint64 // times a packet had to wait for credits
	SendErrors   uint64
	CRCErrors    uint64 // corrupted serializations detected by the CRC window
	Retries      uint64 // replay-buffer retransmissions
	AbortedPkts  uint64 // queued packets completed as aborts when the link dropped
}

// portCounters is the live, race-safe backing store for PortStats. The
// simulation mutates these from engine callbacks while the monitor's
// HTTP handlers read Stats() mid-run; atomics keep that tear-free
// without a lock on the transmit path.
type portCounters struct {
	pktsSent     atomic.Uint64
	bytesSent    atomic.Uint64
	pktsRecv     atomic.Uint64
	bytesRecv    atomic.Uint64
	perVCSent    [NumVCs]atomic.Uint64
	creditStalls atomic.Uint64
	sendErrors   atomic.Uint64
	crcErrors    atomic.Uint64
	retries      atomic.Uint64
	abortedPkts  atomic.Uint64
}

// Sink consumes delivered packets at a link end. done must be called
// exactly once when the receive buffer is drained; credits flow back to
// the transmitter only then, which is how receiver backpressure reaches
// the wire.
type Sink func(p *Packet, done func())

// Port is one end of a Link.
type Port struct {
	link *Link
	side int
	name string

	class DeviceClass

	// Programmable registers; take effect at the next warm reset,
	// exactly like the real frequency/width/debug registers.
	progSpeed Speed
	progWidth int
	forceNC   bool

	credits *Credits // credits held toward the peer
	tx      sim.Server
	waitq   [NumVCs]pktQueue
	sink    Sink
	stats   portCounters

	// Free list of in-flight transfer records. Records live on the
	// transmitting port (allocated at transmit, recycled when the credit
	// coupon returns, both on the transmitter's partition), so a split
	// link's two sides never share a free list.
	recFree *txRec
}

// pktQueue is a FIFO of packets that pops by advancing a head index
// instead of reslicing, so drained queues keep their capacity and the
// steady-state send path never reallocates.
type pktQueue struct {
	buf  []*Packet
	head int
}

func (q *pktQueue) len() int       { return len(q.buf) - q.head }
func (q *pktQueue) front() *Packet { return q.buf[q.head] }

func (q *pktQueue) push(p *Packet) {
	// Compact once the dead prefix dominates, bounding memory on a
	// queue that never fully drains.
	if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		tail := q.buf[n:len(q.buf)]
		for i := range tail {
			tail[i] = nil
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, p)
}

func (q *pktQueue) pop() *Packet {
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return p
}

func (q *pktQueue) reset() {
	for i := q.head; i < len(q.buf); i++ {
		q.buf[i] = nil
	}
	q.buf = q.buf[:0]
	q.head = 0
}

// Link is a bidirectional HyperTransport link between two ports.
//
// A link normally lives on one engine. When its two ends belong to
// different partitions of a parallel run (see Split), each side keeps
// its own engine and tracer, and events crossing the link are posted to
// per-direction mailboxes instead of scheduled directly — the mailbox
// handoff at window barriers is what makes the two sides race-free.
type Link struct {
	engs [2]*sim.Engine  // engine per side; both entries equal unless Split
	mail [2]*sim.Mailbox // mail[s] carries events into side s's partition
	cfg  LinkConfig

	ports [2]*Port

	state LinkState
	typ   LinkType
	speed Speed
	width int

	// Runtime error model: initialized from cfg, overridden by fault
	// campaigns (SetFaultRate). degraded marks the override as a health
	// downgrade without disturbing the configured baseline.
	faultRate    float64
	faultPenalty sim.Time
	degraded     bool

	trainings int
	trc       [2]trace.Tracer // tracer per side; both equal unless Split
	traceID   int

	// Profiling: a nil handle keeps the transmit path at one extra nil
	// check. Both sides share the handle but observe into per-side
	// histogram rows, so a partition-split link's two transmit
	// goroutines never write the same counters.
	prof      *prof.LinkProf
	profSpans bool
	profSerD  sim.Time // counted-constant serialization time (64B posted write)
}

// Event opcodes carried in sim.EventArg.I. The low 16 bits select the
// operation; opTrainDone packs its negotiated speed and width into the
// upper bits so overlapping trainings each carry their own values, just
// as the old per-training closures captured them.
const (
	opDeliver   int64 = iota // arg.Ptr = *txRec: packet arrives at peer
	opCredit                 // arg.Ptr = *txRec: credit coupon returns
	opTrainDone              // speed in bits 16..31, width in bits 40..47

	opSpeedShift = 16
	opWidthShift = 40
)

// txRec tracks one packet from serialization until its credit returns.
// Records are pooled per link; the done closure is built once per record
// and survives recycling, so a steady-state transfer allocates nothing.
type txRec struct {
	next     *txRec
	p        *Port // transmitting port
	pkt      *Packet
	seq      uint64
	wire     int
	vc       VirtualChannel
	hasData  bool
	released bool
	done     func() // prebuilt: hands the rx buffer back (Sink contract)
}

func (p *Port) getRec() *txRec {
	rec := p.recFree
	if rec == nil {
		rec = &txRec{}
		rec.done = func() { rec.link().rxDone(rec) }
		rec.p = p
	} else {
		p.recFree = rec.next
		rec.next = nil
	}
	return rec
}

func (r *txRec) link() *Link { return r.p.link }

func (p *Port) putRec(rec *txRec) {
	rec.pkt = nil
	rec.next = p.recFree
	p.recFree = rec
}

// OnEvent dispatches the link's typed events. Implementing sim.Handler
// directly keeps the per-packet event chain free of closure allocations.
func (l *Link) OnEvent(e *sim.Engine, arg sim.EventArg) {
	switch arg.I & 0xFFFF {
	case opDeliver:
		l.deliver(arg.Ptr.(*txRec))
	case opCredit:
		l.creditReturn(arg.Ptr.(*txRec))
	case opTrainDone:
		l.finishTraining(Speed(arg.I>>opSpeedShift&0xFFFF), int(arg.I>>opWidthShift))
	}
}

// NewLink creates a link in the Down state. Call ColdReset to train it.
func NewLink(eng *sim.Engine, cfg LinkConfig) *Link {
	if cfg.MaxWidth == 0 {
		cfg.MaxWidth = 16
	}
	if cfg.TrainTime == 0 {
		cfg.TrainTime = 1 * sim.Microsecond
	}
	zero := BufferConfig{}
	if cfg.ABuffers == zero {
		cfg.ABuffers = DefaultBufferConfig()
	}
	if cfg.BBuffers == zero {
		cfg.BBuffers = DefaultBufferConfig()
	}
	if cfg.ErrorRate > 0 && cfg.RetryPenalty == 0 {
		cfg.RetryPenalty = 500 * sim.Nanosecond
	}
	l := &Link{engs: [2]*sim.Engine{eng, eng}, cfg: cfg, state: StateDown, typ: TypeDown,
		faultRate: cfg.ErrorRate, faultPenalty: cfg.RetryPenalty}
	l.ports[0] = &Port{link: l, side: 0, name: "A", class: cfg.AClass,
		progSpeed: ColdResetSpeed, progWidth: ColdResetWidth}
	l.ports[1] = &Port{link: l, side: 1, name: "B", class: cfg.BClass,
		progSpeed: ColdResetSpeed, progWidth: ColdResetWidth}
	return l
}

// SetTracer installs the cluster-wide observability tracer for this
// link, identified as Link=id in emitted events. A nil tracer (the
// default) makes every emission site a single nil-check no-op.
func (l *Link) SetTracer(tr trace.Tracer, id int) {
	l.trc = [2]trace.Tracer{tr, tr}
	l.traceID = id
}

// SetProfiler installs the link's phase-attribution handle. spans
// additionally emits trace.KindPhaseSpan events through the link's
// tracer at each queue/serialization boundary. A nil handle (the
// default) disables profiling at the cost of one nil check per packet.
func (l *Link) SetProfiler(lp *prof.LinkProf, spans bool) {
	l.prof = lp
	l.profSpans = spans && lp != nil
	if lp != nil {
		lp.SetConst(prof.LinkFlight, l.cfg.Flight)
		lp.SetConst(prof.LinkQueue, 0) // counted constant: zero-wait sends
		// Serialization fast path: almost all traffic is the 64-byte
		// posted write, so its wire time at the currently trained
		// speed/width becomes the phase's counted constant. Odd-sized
		// packets — and everything after a retrain changes the wire
		// rate — take the histogram path instead.
		if pkt, err := NewPostedWrite(0, make([]byte, 64)); err == nil {
			l.profSerD = l.byteTime(EncodedLen(pkt))
			lp.SetConst(prof.LinkSer, l.profSerD)
		}
	}
}

// Split rebinds the link's two sides onto separate partition engines.
// engA/engB drive the A/B side; mailToA/mailToB receive the events
// destined for the respective side's partition (deliveries of packets
// sent *toward* that side, credit coupons returning *to* it). trA/trB,
// if non-nil, replace the shared tracer with per-partition shards so
// concurrent emissions never touch one collector. Split must happen
// while the link is quiescent (no packets in flight) and sticks until
// Rebind; retraining a split link is not supported.
func (l *Link) Split(engA, engB *sim.Engine, mailToA, mailToB *sim.Mailbox, trA, trB trace.Tracer) {
	l.engs = [2]*sim.Engine{engA, engB}
	l.mail = [2]*sim.Mailbox{mailToA, mailToB}
	if trA != nil {
		l.trc[0] = trA
	}
	if trB != nil {
		l.trc[1] = trB
	}
}

// Rebind moves both sides of an unsplit link onto eng, used when a
// whole node (and its internal links) migrates to a partition engine.
func (l *Link) Rebind(eng *sim.Engine) {
	l.engs = [2]*sim.Engine{eng, eng}
	l.mail = [2]*sim.Mailbox{}
}

// FlightTime returns the configured propagation delay, one of the two
// components of the cross-partition lookahead.
func (l *Link) FlightTime() sim.Time { return l.cfg.Flight }

// split reports whether the link's sides live on different partitions.
func (l *Link) split() bool { return l.mail[0] != nil || l.mail[1] != nil }

// sched routes an event into side's partition: directly onto its engine
// when the caller runs there, through the mailbox when it does not. A
// mailed event is stamped with the producing partition's clock — in
// split mode sched(side) is always called by the opposite side, whose
// events run on engs[1-side] — so the consumer orders it exactly as a
// serial run would have.
func (l *Link) sched(side int, at sim.Time, arg sim.EventArg) {
	if mb := l.mail[side]; mb != nil {
		mb.Post(l.engs[1-side], at, l, arg)
		return
	}
	l.engs[side].Schedule(at, l, arg)
}

// A returns the port on the A side.
func (l *Link) A() *Port { return l.ports[0] }

// B returns the port on the B side.
func (l *Link) B() *Port { return l.ports[1] }

// State returns the training state.
func (l *Link) State() LinkState { return l.state }

// Type returns the trained link personality.
func (l *Link) Type() LinkType { return l.typ }

// Speed returns the trained clock.
func (l *Link) Speed() Speed { return l.speed }

// Width returns the trained lane count.
func (l *Link) Width() int { return l.width }

// Trainings returns how many training sequences have completed, used by
// tests to assert that warm reset actually retrained.
func (l *Link) Trainings() int { return l.trainings }

// RawBandwidth returns the unidirectional payload-agnostic link rate in
// bytes per second at the trained width and clock.
func (l *Link) RawBandwidth() float64 {
	if l.state != StateActive {
		return 0
	}
	return float64(l.width) * l.speed.GbitPerLane() * 1e9 / 8
}

// byteTime returns the serialization time of n wire bytes, including the
// periodic-CRC overhead.
func (l *Link) byteTime(n int) sim.Time {
	bits := float64(n*8) * crcNum / crcDen
	bitsPerPs := float64(l.width) * 2 * float64(l.speed) * 1e-6
	return sim.Time(bits/bitsPerPs + 0.5)
}

// SerializationTime exposes byteTime for analysis tools.
func (l *Link) SerializationTime(n int) sim.Time { return l.byteTime(n) }

// Side returns "A" or "B" naming for diagnostics.
func (p *Port) Side() string { return p.name }

// Class returns the device class this end identifies as.
func (p *Port) Class() DeviceClass { return p.class }

// Peer returns the other end of the link.
func (p *Port) Peer() *Port { return p.link.ports[1-p.side] }

// Link returns the link this port belongs to.
func (p *Port) Link() *Link { return p.link }

// Stats returns a copy of the port's traffic counters. It is safe to
// call concurrently with a running simulation (live backend): each
// counter is loaded atomically.
func (p *Port) Stats() PortStats {
	s := PortStats{
		PktsSent:     p.stats.pktsSent.Load(),
		BytesSent:    p.stats.bytesSent.Load(),
		PktsRecv:     p.stats.pktsRecv.Load(),
		BytesRecv:    p.stats.bytesRecv.Load(),
		CreditStalls: p.stats.creditStalls.Load(),
		SendErrors:   p.stats.sendErrors.Load(),
		CRCErrors:    p.stats.crcErrors.Load(),
		Retries:      p.stats.retries.Load(),
		AbortedPkts:  p.stats.abortedPkts.Load(),
	}
	for vc := range s.PerVCSent {
		s.PerVCSent[vc] = p.stats.perVCSent[vc].Load()
	}
	return s
}

// SetSink installs the packet consumer for this end.
func (p *Port) SetSink(s Sink) { p.sink = s }

// SetProgrammedSpeed stages a link clock; it takes effect at the next
// warm reset (paper §V: "the link speed is increased from 400 to 4800
// Mbit/s" before the warm reset).
func (p *Port) SetProgrammedSpeed(s Speed) { p.progSpeed = s }

// SetProgrammedWidth stages a lane count for the next warm reset.
func (p *Port) SetProgrammedWidth(w int) { p.progWidth = w }

// SetForceNonCoherent stages the debug register that makes this end
// identify as a non-coherent device at the next warm reset — the core
// TCCluster mechanism (paper §IV.B).
func (p *Port) SetForceNonCoherent(v bool) { p.forceNC = v }

// ForceNonCoherent reads back the staged debug register.
func (p *Port) ForceNonCoherent() bool { return p.forceNC }

// bufferCfg returns the receive buffers this port advertises.
func (p *Port) bufferCfg() BufferConfig {
	if p.side == 0 {
		return p.link.cfg.ABuffers
	}
	return p.link.cfg.BBuffers
}

// Send transmits a packet toward the peer. Delivery is asynchronous via
// the peer's Sink; ordering within a VC is preserved. Send fails when
// the link is not active.
func (p *Port) Send(pkt *Packet) error {
	l := p.link
	if l.state != StateActive {
		p.stats.sendErrors.Add(1)
		return fmt.Errorf("ht: send on %v link (state %v)", l.typ, l.state)
	}
	if err := pkt.Validate(); err != nil {
		p.stats.sendErrors.Add(1)
		return err
	}
	if l.prof != nil {
		pkt.profT = l.engs[p.side].Now()
	}
	vc := pkt.Cmd.VC()
	if p.waitq[vc].len() > 0 || !p.credits.CanSend(pkt) {
		p.stats.creditStalls.Add(1)
		if tr := l.trc[p.side]; tr != nil {
			tr.Emit(trace.Event{
				At: l.engs[p.side].Now(), Kind: trace.KindCreditStall, Node: -1,
				Link: l.traceID, Src: p.side, Dst: 1 - p.side,
			})
		}
	}
	p.waitq[vc].push(pkt)
	p.pump()
	return nil
}

// QueuedPackets returns how many packets are waiting for credits or
// serialization across all VCs.
func (p *Port) QueuedPackets() int {
	n := 0
	for vc := range p.waitq {
		n += p.waitq[vc].len()
	}
	return n
}

// CheckIdle verifies the port holds no queued packets and all credits
// toward the peer have been returned — the state an idle fabric must be
// in after any completed workload.
func (p *Port) CheckIdle() error {
	if n := p.QueuedPackets(); n != 0 {
		return fmt.Errorf("ht: port %s holds %d queued packets", p.name, n)
	}
	if p.credits == nil {
		return nil // never trained
	}
	if err := p.credits.CheckFull(p.Peer().bufferCfg()); err != nil {
		return fmt.Errorf("ht: port %s: %w", p.name, err)
	}
	return nil
}

// pump moves as many queued packets as credits allow into serialization.
// Response traffic drains first (HT deadlock rule: responses must always
// be able to make progress), then posted, then non-posted.
func (p *Port) pump() {
	order := [...]VirtualChannel{VCResponse, VCPosted, VCNonPosted}
	for _, vc := range order {
		for p.waitq[vc].len() > 0 && p.credits.CanSend(p.waitq[vc].front()) {
			pkt := p.waitq[vc].pop()
			p.credits.Consume(pkt)
			p.transmit(pkt)
		}
	}
}

func (p *Port) transmit(pkt *Packet) {
	l := p.link
	eng := l.engs[p.side]
	pkt.Accept()
	wire := EncodedLen(pkt)
	ser := l.byteTime(wire)
	seq := p.stats.pktsSent.Add(1)
	// Link-level retry: each corrupted serialization costs the CRC
	// detection + resync penalty plus a replay of the packet. The
	// replay buffer preserves order because the tx server is FIFO and
	// retries book consecutive slots. The fault draw is a stateless
	// hash of (seed, side, packet sequence, attempt) rather than a
	// shared RNG stream, so the fault pattern a packet sees depends
	// only on its identity — not on how transmissions on the two sides
	// interleave — and serial and partition-split runs corrupt exactly
	// the same packets.
	attempts := sim.Time(0)
	if l.faultRate > 0 {
		for n := uint64(0); faultU01(l.cfg.ErrorSeed, uint64(p.side), seq, n) < l.faultRate; n++ {
			p.stats.crcErrors.Add(1)
			p.stats.retries.Add(1)
			attempts += ser + l.faultPenalty
		}
	}
	start, done := p.tx.Schedule(eng.Now(), attempts+ser)
	if lp := l.prof; lp != nil {
		// start is when serialization begins (egress-server FIFO), so
		// start - profT is everything the packet waited for: credits,
		// VC ordering, and tx backlog. The dominant packet — sent on an
		// idle link with credits in hand, serialized at the constant
		// 64-byte wire time — collapses to one fused counter increment;
		// everything else attributes phase by phase.
		if wait := start - pkt.profT; wait == 0 && ser == l.profSerD {
			lp.AddFast(p.side)
		} else {
			if wait == 0 {
				lp.AddConst(p.side, prof.LinkQueue)
			} else {
				lp.Observe(p.side, prof.LinkQueue, wait)
			}
			if ser == l.profSerD {
				lp.AddConst(p.side, prof.LinkSer)
			} else {
				lp.Observe(p.side, prof.LinkSer, ser)
			}
			lp.AddConst(p.side, prof.LinkFlight)
		}
		if attempts > 0 {
			lp.Observe(p.side, prof.LinkRetry, attempts)
		}
		if l.profSpans {
			if tr := l.trc[p.side]; tr != nil {
				tr.Emit(trace.Event{
					At: pkt.profT, Dur: start - pkt.profT, Kind: trace.KindPhaseSpan,
					Node: -1, Link: l.traceID, Src: p.side, Dst: 1 - p.side,
					Seq: seq, Label: "link.queue",
				})
				tr.Emit(trace.Event{
					At: start, Dur: attempts + ser, Kind: trace.KindPhaseSpan,
					Node: -1, Link: l.traceID, Src: p.side, Dst: 1 - p.side,
					Seq: seq, Label: "link.ser",
				})
			}
		}
	}
	p.stats.bytesSent.Add(uint64(wire))
	p.stats.perVCSent[pkt.Cmd.VC()].Add(1)
	if tr := l.trc[p.side]; tr != nil {
		tr.Emit(trace.Event{
			At: eng.Now(), Kind: trace.KindPacketSent, Node: -1,
			Link: l.traceID, Src: p.side, Dst: 1 - p.side,
			Seq: seq, Bytes: wire, Label: pkt.String(),
		})
	}
	rec := p.getRec()
	rec.pkt = pkt
	rec.seq = seq
	rec.wire = wire
	rec.vc = pkt.Cmd.VC()
	rec.hasData = pkt.Cmd.HasData()
	rec.released = false
	// The delivery event belongs to the receiving side's partition.
	l.sched(1-p.side, done+l.cfg.Flight, sim.EventArg{Ptr: rec, I: opDeliver})
}

// faultU01 maps a fault-draw identity to a uniform [0,1) value with a
// splitmix64-style finalizer. Keying on the per-side packet sequence
// keeps the stream independent of global event interleaving.
func faultU01(seed, side, seq, attempt uint64) float64 {
	x := seed + 0x9E3779B97F4A7C15*(side+1) + seq*0xBF58476D1CE4E5B9 + attempt*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// deliver lands a packet at the peer port and hands the receive buffer
// to the sink together with rec's prebuilt done.
func (l *Link) deliver(rec *txRec) {
	p, pkt := rec.p, rec.pkt
	peer := p.Peer()
	if tr := l.trc[peer.side]; tr != nil {
		tr.Emit(trace.Event{
			At: l.engs[peer.side].Now(), Kind: trace.KindPacketDelivered, Node: -1,
			Link: l.traceID, Src: p.side, Dst: 1 - p.side,
			Seq: rec.seq, Bytes: rec.wire,
		})
	}
	peer.stats.pktsRecv.Add(1)
	peer.stats.bytesRecv.Add(uint64(rec.wire))
	if peer.sink != nil {
		peer.sink(pkt, rec.done)
	} else {
		rec.done()
	}
}

// rxDone is the Sink done contract: the receive buffer has drained, so
// the credit coupon rides back on the reverse channel — flight plus a
// 4-byte Nop serialization.
func (l *Link) rxDone(rec *txRec) {
	if rec.released {
		panic("ht: rx-buffer done() called twice")
	}
	rec.released = true
	delay := l.cfg.Flight + l.byteTime(4)
	// rxDone runs on the receiving side; the coupon lands back at the
	// transmitter's partition.
	now := l.engs[1-rec.p.side].Now()
	l.sched(rec.p.side, now+delay, sim.EventArg{Ptr: rec, I: opCredit})
}

// creditReturn releases rec's credits at the transmitter. It releases by
// shape (VC + data bit captured at transmit time) because the sink may
// have recycled the packet long before the coupon lands. Like the old
// closure, it releases into whatever credit counters the port holds
// *now*, so a coupon that survives a retrain tops up the fresh counters.
func (l *Link) creditReturn(rec *txRec) {
	p, vc, hasData := rec.p, rec.vc, rec.hasData
	p.putRec(rec)
	p.credits.ReleaseShape(vc, hasData)
	p.pump()
}

// ForceDown models a cable pull or unrecoverable link failure: the link
// drops immediately, queued packets complete as aborts (the posted
// store finished at the CPU; the data simply never arrives), and every
// subsequent Send fails until a reset retrains it. TCCluster has no
// routing-level failover — the paper's architecture simply loses the
// path, which is what tests built on this observe.
//
// ForceDown only mutates link state — it schedules nothing — so a fault
// campaign may call it from the parallel coordinator's serial section
// even on a partition-split link.
func (l *Link) ForceDown() {
	l.state = StateDown
	l.typ = TypeDown
	l.abortQueued()
}

// abortQueued flushes both ports' wait queues and tx servers, completing
// every queued packet as an abort. Accept fires each packet's completion
// chain (ingress credit release, CPU store retirement) exactly as a real
// posted write that master-aborts downstream would: the sender never
// learns, the bytes are gone. Without this, a cable pull would strand
// the upstream completion forever and wedge the sender.
func (l *Link) abortQueued() {
	for _, p := range l.ports {
		for vc := range p.waitq {
			q := &p.waitq[vc]
			for q.len() > 0 {
				pkt := q.pop()
				p.stats.abortedPkts.Add(1)
				pkt.Accept()
			}
			q.reset()
		}
		p.tx.Reset()
	}
}

// SetFaultRate overrides the runtime error model — the campaign's "link
// degrade" knob. A rate above the configured baseline marks the link
// degraded; penalty <= 0 keeps the current replay penalty (defaulting
// to 500 ns if none was configured). Rates are clamped below 1 so the
// retry loop always terminates. Mutation-only: safe from the serial
// section of a parallel run.
func (l *Link) SetFaultRate(rate float64, penalty sim.Time) {
	if rate > 0.95 {
		rate = 0.95
	}
	if rate < 0 {
		rate = 0
	}
	l.faultRate = rate
	if penalty > 0 {
		l.faultPenalty = penalty
	} else if l.faultPenalty == 0 {
		l.faultPenalty = 500 * sim.Nanosecond
	}
	l.degraded = rate > l.cfg.ErrorRate
}

// ClearFaultOverride restores the configured baseline error model.
func (l *Link) ClearFaultOverride() {
	l.faultRate = l.cfg.ErrorRate
	l.faultPenalty = l.cfg.RetryPenalty
	l.degraded = false
}

// Health projects training state plus the runtime error model onto the
// alive/degraded/dead/retraining ladder fault campaigns and the monitor
// reason about.
func (l *Link) Health() LinkHealth {
	switch l.state {
	case StateActive:
		if l.degraded {
			return HealthDegraded
		}
		return HealthAlive
	case StateTraining:
		return HealthRetraining
	default:
		return HealthDead
	}
}

// TrainTime returns the configured duration of one training sequence.
func (l *Link) TrainTime() sim.Time { return l.cfg.TrainTime }

// StartRetrain begins a training sequence without scheduling its
// completion: the state flips to Training, queued packets abort, and
// the caller owns delivering FinishRetrain after TrainTime. This is the
// campaign-driven counterpart of beginTraining — mutation-only, so the
// parallel coordinator can retrain even a partition-split link from its
// serial section, where beginTraining (which schedules on an engine)
// must panic. Returns false when training is already in progress (one
// shared reset wire: a second assert is absorbed), in which case the
// caller must not schedule another completion.
func (l *Link) StartRetrain() bool {
	if l.state == StateTraining {
		return false
	}
	l.state = StateTraining
	l.typ = TypeDown
	l.abortQueued()
	return true
}

// RetrainTarget returns the speed and width the next campaign-driven
// retrain will land on: the programmed registers of both ends, clamped
// to the wired lanes — the same negotiation WarmReset performs.
func (l *Link) RetrainTarget() (Speed, int) {
	speed := l.ports[0].progSpeed
	if l.ports[1].progSpeed < speed {
		speed = l.ports[1].progSpeed
	}
	width := minInt(l.ports[0].progWidth, l.ports[1].progWidth)
	width = minInt(width, l.cfg.MaxWidth)
	return speed, width
}

// FinishRetrain completes a StartRetrain with the negotiated speed and
// width. Mutation-only, serial-section safe on split links.
func (l *Link) FinishRetrain(speed Speed, width int) {
	l.finishTraining(speed, minInt(width, l.cfg.MaxWidth))
}

// ColdReset drops the link and trains it from scratch: width and clock
// fall back to the cold-reset defaults and programmed values are NOT
// applied — only a warm reset applies them. Both prototype boards in the
// paper must come out of cold reset simultaneously; the fabric layer
// enforces that by issuing cold resets at the same virtual instant.
func (l *Link) ColdReset() {
	l.beginTraining(ColdResetSpeed, minInt(ColdResetWidth, l.cfg.MaxWidth))
}

// WarmReset retrains the link with the programmed registers, which is
// when the forced-non-coherent debug setting and staged speed/width
// become effective (paper §V "Warm Reset" step).
func (l *Link) WarmReset() {
	speed := l.ports[0].progSpeed
	if l.ports[1].progSpeed < speed {
		speed = l.ports[1].progSpeed
	}
	width := minInt(l.ports[0].progWidth, l.ports[1].progWidth)
	width = minInt(width, l.cfg.MaxWidth)
	l.beginTraining(speed, width)
}

func (l *Link) beginTraining(speed Speed, width int) {
	if l.split() {
		// Training mutates both ports' queues and the shared state
		// machine; on a split link the two sides run concurrently, so a
		// retrain mid-run would race. Firmware trains before the cluster
		// is partitioned, and fault scenarios retrain between runs.
		panic("ht: cannot retrain a partition-split link")
	}
	if l.state == StateTraining {
		// Both ends share one physical reset wire (the paper short-
		// circuits the reset signals of its two boards): a second assert
		// while training is already in progress is absorbed.
		return
	}
	l.state = StateTraining
	l.typ = TypeDown
	// A reset flushes in-flight traffic and resets flow-control state.
	for _, p := range l.ports {
		for vc := range p.waitq {
			p.waitq[vc].reset()
		}
		p.tx.Reset()
	}
	l.engs[0].ScheduleAfter(l.cfg.TrainTime, l, sim.EventArg{
		I: opTrainDone | int64(speed)<<opSpeedShift | int64(width)<<opWidthShift,
	})
}

// finishTraining completes a training sequence with the speed and width
// that were negotiated when it began (they ride in the event argument,
// so overlapping reset sequences stay independent).
func (l *Link) finishTraining(speed Speed, width int) {
	l.state = StateActive
	l.speed = speed
	l.width = width
	l.typ = l.negotiateType()
	l.trainings++
	l.ports[0].credits = NewCredits(l.ports[1].bufferCfg())
	l.ports[1].credits = NewCredits(l.ports[0].bufferCfg())
}

// negotiateType implements the identification phase of training: two
// processors form a coherent link, any IO device forces non-coherent,
// and the debug register overrides processor identification — the
// mechanism TCCluster is built on.
func (l *Link) negotiateType() LinkType {
	a, b := l.ports[0], l.ports[1]
	if a.class == ClassProcessor && b.class == ClassProcessor &&
		!a.forceNC && !b.forceNC {
		return TypeCoherent
	}
	return TypeNonCoherent
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
