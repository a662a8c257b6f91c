package msg

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/kernel"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Open establishes a unidirectional message channel from node src to
// node dst. It allocates the 4 KB receive ring (and optional bulk
// region) in dst's uncachable window, a flow-control slot in src's
// uncachable window, and the remote mappings both sides need. Per the
// paper, every communicating endpoint pair costs the receiver one ring
// (§IV.A) — the footprint experiment E7 counts exactly these pages.
func Open(os *kernel.OS, src, dst int, par Params) (*Sender, *Receiver, error) {
	if err := par.validate(); err != nil {
		return nil, nil, err
	}
	if src == dst {
		return nil, nil, fmt.Errorf("msg: cannot open a channel to self")
	}
	ks, kd := os.Kernel(src), os.Kernel(dst)
	cl := os.Cluster()

	ringOff, err := kd.AllocUC(par.RingBytes)
	if err != nil {
		return nil, nil, fmt.Errorf("msg: receiver ring: %w", err)
	}
	fcOff, err := ks.AllocUC(kernel.PageSize)
	if err != nil {
		return nil, nil, fmt.Errorf("msg: flow-control slot: %w", err)
	}

	ringPages := (par.RingBytes + kernel.PageSize - 1) / kernel.PageSize * kernel.PageSize
	sendWin, err := ks.MapRemote(dst, ringOff, ringPages)
	if err != nil {
		return nil, nil, err
	}
	ringLocal, err := kd.MapLocal(ringOff, ringPages)
	if err != nil {
		return nil, nil, err
	}
	fcRemote, err := kd.MapRemote(src, fcOff, kernel.PageSize)
	if err != nil {
		return nil, nil, err
	}
	fcLocal, err := ks.MapLocal(fcOff, kernel.PageSize)
	if err != nil {
		return nil, nil, err
	}

	var bulkSend, bulkLocal *kernel.Window
	if par.BulkBytes > 0 {
		bulkOff, err := kd.AllocUC(par.BulkBytes)
		if err != nil {
			return nil, nil, fmt.Errorf("msg: bulk region: %w", err)
		}
		bulkPages := (par.BulkBytes + kernel.PageSize - 1) / kernel.PageSize * kernel.PageSize
		if bulkSend, err = ks.MapRemote(dst, bulkOff, bulkPages); err != nil {
			return nil, nil, err
		}
		if bulkLocal, err = kd.MapLocal(bulkOff, bulkPages); err != nil {
			return nil, nil, err
		}
	}

	// Each endpoint schedules and timestamps on the engine of the node it
	// runs on: the sender's poll/trace activity belongs to src's
	// partition, the receiver's poll loop to dst's.
	s := &Sender{
		eng: cl.EngineFor(src), node: ks.Node(), par: par, src: src, dst: dst,
		ring: sendWin, fc: fcLocal, bulk: bulkSend,
		tracer: cl.TracerFor(src),
	}
	r := &Receiver{
		eng: cl.EngineFor(dst), par: par, src: src, dst: dst,
		ring: ringLocal, fc: fcRemote, bulk: bulkLocal,
	}
	if pr := cl.Profiler(); pr != nil {
		r.prof = pr.Node(dst)
	}
	return s, r, nil
}

// Stats counts channel activity.
type Stats struct {
	Messages   uint64
	Bytes      uint64
	WrapFrames uint64
	FCUpdates  uint64
	FCStalls   uint64 // sender had to poll for space
	SeqErrors  uint64
	Puts       uint64
	PutBytes   uint64

	// Reliable-mode counters.
	Retransmits uint64 // frames rewritten at their original offsets
	AckTimeouts uint64 // sender timeout rounds without ack progress
	Probes      uint64 // ack probes written into the ring
	AcksPosted  uint64 // cumulative acks the receiver stored remotely
}

// Sender is the source endpoint of a channel.
type Sender struct {
	eng      *sim.Engine
	node     *core.Node // the source node, which counts ring-full stalls
	par      Params
	src, dst int

	ring *kernel.Window // remote mapping of the receiver's ring
	fc   *kernel.Window // local mapping of the flow-control slot
	bulk *kernel.Window // optional remote rendezvous region

	sent     uint64 // monotone ring bytes produced (incl. wrap padding)
	consumed uint64 // last flow-control value observed
	seq      uint32
	stats    Stats
	tracer   trace.Tracer

	// Sends are serialized: a CPU core issues one store stream at a
	// time, and ring offsets are claimed in issue order. The queue is
	// drained by head index so its backing array is reused, and the
	// in-flight frame's state lives on the sender — one send at a time
	// — so the write chain runs on continuations built once per sender
	// instead of a closure tree per frame.
	busy    bool
	curWrap bool // the in-flight store is a wrap marker, not a frame
	queue   []queuedSend
	qHead   int

	scratch    []byte // reusable frame or wrap-marker image (unreliable mode only)
	curPayload []byte // payload of the send awaiting reservation
	curOff     uint64 // ring offset of the frame or wrap marker being stored
	curFS      uint64
	curSeq     uint32
	curLen     int
	curFrame   []byte // store image of the frame or wrap marker
	curDone    func(error)
	resNeed    uint64 // reserve() state: bytes needed (incl. wrap padding)
	resFS      uint64
	resCont    func(error)
	resWait    func()
	resRead    func([]byte, error)
	afterRes   func(error)
	wfSingle   func(error)
	wfTail     func(error)
	wfSync1    func()
	wfHdr      func(error)
	wfSync2    func()

	// Reliable-mode state. unacked holds every frame whose sequence the
	// receiver has not yet acknowledged, in sequence order; its store
	// images are what a timeout retransmits (go-back-N at original
	// offsets — the receiver's lap-staleness check makes duplicates
	// read as empty). The ack timer is a generation-tagged event so a
	// re-arm invalidates any timer already in flight.
	unacked    []relFrame
	acked      uint32 // last cumulative ack read from the fc page
	attempts   int    // consecutive no-progress timeouts
	timerGen   uint64
	timerArmed bool
	dead       bool // retransmit budget exhausted; channel abandoned

	// Flow-control doorbell (Params.Doorbell, opt-in): instead of
	// spinning uncached reads on the fc slot while the ring is full,
	// the sender parks and the NB rings it when a store into the fc
	// page becomes visible. fcDirty flags a ring that happened while a
	// stall-path fc read was in flight, so the sender never parks past
	// a wake it should have seen.
	fcParked  func()
	fcDirty   bool
	fcUnwatch func()
	fcNoBell  bool // watch registration failed: legacy spin polling
}

// relFrame is one unacknowledged reliable frame: enough to rewrite it
// byte-identically at its original ring offset. Wrap markers ride along
// (flag set, no completion) so a retransmission round reproduces the
// exact ring layout the receiver walks.
type relFrame struct {
	seq  uint32
	off  uint64
	img  []byte
	wrap bool
	done func(error)
}

type queuedSend struct {
	payload []byte
	done    func(error)
}

// Stats returns a copy of the sender's counters.
func (s *Sender) Stats() Stats { return s.stats }

// Src and Dst identify the channel's endpoints.
func (s *Sender) Src() int { return s.src }

// Dst returns the destination node index.
func (s *Sender) Dst() int { return s.dst }

// MaxMessage is the largest payload Send accepts.
func (s *Sender) MaxMessage() int { return s.par.MaxMessage() }

// Send delivers payload to the receiver's ring. done fires once the
// frame — payload fenced before header — has left the store pipeline;
// HyperTransport's ordered posted channel takes it from there. In
// reliable mode done instead fires when the receiver's cumulative ack
// covers the frame (or with errs.ErrPeerDead once the retransmit
// budget is exhausted). Send blocks (in virtual time, polling the
// flow-control slot) while the ring is full. Send keeps payload until
// the frame is written, so the caller may reuse it once done fires.
func (s *Sender) Send(payload []byte, done func(error)) {
	if s.dead {
		done(s.deadErr())
		return
	}
	if len(payload) == 0 || len(payload) > s.MaxMessage() {
		done(fmt.Errorf("msg: payload %d bytes outside 1..%d", len(payload), s.MaxMessage()))
		return
	}
	s.queue = append(s.queue, queuedSend{payload: payload, done: done})
	if !s.busy {
		s.busy = true
		s.drain()
	}
}

// drain executes queued sends one at a time so each claims its ring
// offset in order.
func (s *Sender) drain() {
	if s.qHead >= len(s.queue) {
		s.qHead = 0
		s.queue = s.queue[:0]
		s.busy = false
		return
	}
	q := s.queue[s.qHead]
	s.queue[s.qHead] = queuedSend{} // drop refs for the queue's lifetime
	s.qHead++
	s.curPayload, s.curDone = q.payload, q.done
	if s.afterRes == nil {
		s.afterRes = func(err error) {
			payload, done := s.curPayload, s.curDone
			s.curPayload = nil
			if err != nil {
				s.curDone = nil
				done(err)
				s.drain()
				return
			}
			s.writeFrame(payload, done)
		}
	}
	s.reserve(frameSize(len(q.payload)), s.afterRes)
}

// deadErr is the error a dead-latched sender hands every completion.
func (s *Sender) deadErr() error {
	return fmt.Errorf("msg: peer %d unreachable after %d retransmit rounds: %w",
		s.dst, s.par.RetransmitBudget, errs.ErrPeerDead)
}

// reserve waits (polling flow control) until fs ring bytes are free,
// inserting a wrap marker if the frame would straddle the ring end.
// One reservation is in flight at a time (sends are serialized), so
// the wait/read continuations are built once per sender.
func (s *Sender) reserve(fs uint64, cont func(error)) {
	need := fs
	if off := s.sent % s.par.RingBytes; off+fs > s.par.RingBytes {
		need += s.par.RingBytes - off // wrap padding also needs space
	}
	s.resFS, s.resNeed, s.resCont = fs, need, cont
	if s.resWait == nil {
		s.resWait = func() {
			ring := s.par.RingBytes
			off := s.sent % ring
			if s.dead {
				s.resCont(s.deadErr())
				return
			}
			if ring-(s.sent-s.consumed) >= s.resNeed {
				if off+s.resFS > ring {
					s.writeWrap()
					return
				}
				s.resCont(nil)
				return
			}
			// Ring full: read the local UC flow-control slot. In doorbell
			// mode the sender then parks — the NB resumes the wait the
			// instant the receiver's next flow-control store becomes
			// visible, so the stall costs one wake per fc-page write;
			// otherwise the read loops back to back, the paper's
			// uncached spin poll.
			s.stats.FCStalls++
			s.node.CountRingFull()
			if s.tracer != nil {
				s.tracer.Emit(trace.Event{
					At: s.eng.Now(), Kind: trace.KindRingFull, Node: s.src,
					Link: -1, Src: s.src, Dst: s.dst, Bytes: int(s.resNeed),
				})
			}
			s.fcDirty = false
			s.fc.Read(0, 8, s.resRead)
		}
		s.resRead = func(d []byte, err error) {
			if err != nil {
				s.resCont(err)
				return
			}
			v := binary.LittleEndian.Uint64(d)
			if v > s.consumed {
				s.consumed = v
			}
			if s.par.RingBytes-(s.sent-s.consumed) >= s.resNeed || s.fcDirty || !s.ensureFCDoorbell() {
				s.resWait() // progress, a write landed mid-read, or no doorbell
				return
			}
			s.fcParked = s.resWait
		}
	}
	s.resWait()
}

// ensureFCDoorbell lazily registers the sender's write watch on its
// local flow-control page. False means the channel is not in doorbell
// mode or watches are unavailable (the stall path falls back to the
// paper's spin polling either way).
func (s *Sender) ensureFCDoorbell() bool {
	if !s.par.Doorbell || s.fcNoBell {
		return false
	}
	if s.fcUnwatch != nil {
		return true
	}
	un, err := s.fc.WatchWrites(0, kernel.PageSize, s.onFCDoorbell)
	if err != nil {
		s.fcNoBell = true
		return false
	}
	s.fcUnwatch = un
	return true
}

// onFCDoorbell runs inside the NB's store-visibility event whenever the
// fc page is written (a flow-control update, or a cumulative ack in
// reliable mode — a parked sender woken by an ack simply re-reads and
// parks again).
func (s *Sender) onFCDoorbell(uint64, int) {
	if s.fcParked != nil {
		w := s.fcParked
		s.fcParked = nil
		w()
		return
	}
	s.fcDirty = true
}

// writeWrap emits a wrap-marker frame covering the remainder to the
// ring end, then continues the reservation (s.resCont). The marker is
// the in-flight store: it rides the frame's cur* state and its
// single-line store chain, flagged by curWrap. Unreliable mode stores
// it from the scratch image; reliable mode allocates one, since the
// image is retained for retransmission.
func (s *Sender) writeWrap() {
	s.curOff, s.curWrap = s.sent%s.par.RingBytes, true
	if s.par.Reliable {
		s.curFrame = packHeader(wrapMark, s.seq)
	} else {
		s.scratch = binary.LittleEndian.AppendUint32(s.scratch[:0], wrapMark)
		s.scratch = binary.LittleEndian.AppendUint32(s.scratch, s.seq)
		s.curFrame = s.scratch
	}
	s.stats.WrapFrames++
	s.ensureWriteChain()
	s.ring.Write(s.curOff, s.curFrame, s.wfSingle)
}

// finishWrap completes the in-flight wrap marker.
func (s *Sender) finishWrap(err error) {
	img := s.curFrame
	s.curFrame, s.curWrap = nil, false
	if err != nil {
		s.resCont(err)
		return
	}
	s.sent += s.par.RingBytes - s.curOff
	if s.par.Reliable && !s.dead {
		s.unacked = append(s.unacked, relFrame{seq: s.seq, off: s.curOff, img: img, wrap: true})
		s.armTimer(s.par.AckTimeout)
	}
	s.resCont(nil)
}

// writeFrame stores the frame and then continues the send queue. done
// is the application completion: it fires with the store pipeline in
// unreliable mode, and is parked on the unacked list until the
// receiver's ack covers the frame in reliable mode. One frame is in
// flight at a time, so its state lives on the sender and the store
// chain runs on continuations built once; unreliable mode reuses a
// scratch frame image (reliable mode allocates, since the image is
// retained for retransmission).
func (s *Sender) writeFrame(payload []byte, done func(error)) {
	off := s.sent % s.par.RingBytes
	fs := frameSize(len(payload))
	s.seq++
	s.curOff, s.curFS, s.curSeq, s.curLen, s.curDone = off, fs, s.seq, len(payload), done
	if s.par.Reliable {
		s.curFrame = buildFrame(payload, s.seq)
	} else {
		s.scratch = buildFrameInto(s.scratch[:0], payload, s.seq)
		s.curFrame = s.scratch
	}
	s.ensureWriteChain()
	addr := s.ring.Addr(off) // for line-crossing check only
	if fs <= 64 && addr/64 == (addr+fs-1)/64 {
		s.ring.Write(off, s.curFrame, s.wfSingle)
		return
	}
	s.ring.Write(off+headerBytes, s.curFrame[headerBytes:], s.wfTail)
}

// ensureWriteChain lazily builds the frame-store continuations.
func (s *Sender) ensureWriteChain() {
	if s.wfSingle != nil {
		return
	}
	s.wfSingle = func(err error) {
		if err != nil {
			s.finishFrame(err)
			return
		}
		s.ring.Sync(s.wfSync2)
	}
	s.wfTail = func(err error) {
		if err != nil {
			s.finishFrame(err)
			return
		}
		s.ring.Sync(s.wfSync1)
	}
	s.wfSync1 = func() {
		s.ring.Write(s.curOff, s.curFrame[:headerBytes], s.wfHdr)
	}
	s.wfHdr = func(err error) {
		if err != nil {
			s.finishFrame(err)
			return
		}
		s.ring.Sync(s.wfSync2)
	}
	s.wfSync2 = func() { s.finishFrame(nil) }
}

// finishFrame completes the in-flight frame and re-enters the queue.
func (s *Sender) finishFrame(err error) {
	if s.curWrap {
		s.finishWrap(err)
		return
	}
	done, frame := s.curDone, s.curFrame
	s.curDone, s.curFrame = nil, nil
	if err != nil {
		done(err)
		s.drain()
		return
	}
	s.sent += s.curFS
	s.stats.Messages++
	s.stats.Bytes += uint64(s.curLen)
	if s.par.Reliable {
		if s.dead {
			done(s.deadErr())
		} else {
			s.unacked = append(s.unacked, relFrame{seq: s.curSeq, off: s.curOff, img: frame, done: done})
			s.armTimer(s.par.AckTimeout)
		}
		s.drain()
		return
	}
	done(nil)
	s.drain()
}

// armTimer schedules the ack-progress timer d from now unless one is
// already pending. Timers are generation-tagged: bumping the generation
// invalidates any event already in flight.
func (s *Sender) armTimer(d sim.Time) {
	if s.timerArmed || s.dead {
		return
	}
	s.timerArmed = true
	s.timerGen++
	s.eng.ScheduleAfter(d, s, sim.EventArg{I: int64(s.timerGen)})
}

// OnEvent is the ack timer: read the cumulative ack from the local
// flow-control page, complete what it covers, and retransmit — or give
// the peer up — when it stalls.
func (s *Sender) OnEvent(_ *sim.Engine, arg sim.EventArg) {
	if uint64(arg.I) != s.timerGen {
		return // superseded by a later arm
	}
	s.timerArmed = false
	if s.dead || len(s.unacked) == 0 {
		s.attempts = 0
		return
	}
	s.fc.Read(ackOff, 8, func(d []byte, err error) {
		if err != nil {
			s.armTimer(s.par.AckTimeout)
			return
		}
		a := uint32(binary.LittleEndian.Uint64(d))
		progress := seqDelta(a, s.acked) > 0
		if progress {
			s.acked = a
		}
		s.completeAcked()
		if len(s.unacked) == 0 {
			s.attempts = 0
			return
		}
		if progress {
			s.attempts = 0
			s.armTimer(s.par.AckTimeout)
			return
		}
		s.attempts++
		s.stats.AckTimeouts++
		if s.attempts > s.par.RetransmitBudget {
			s.latchDead()
			return
		}
		shift := s.attempts
		if shift > 5 {
			shift = 5 // cap the backoff at 32x
		}
		backoff := s.par.AckTimeout << shift
		s.retransmit(0, func() { s.armTimer(backoff) })
	})
}

// completeAcked fires the completions of the acked prefix of the
// unacked list, in sequence order. A wrap marker is passed only once a
// later frame is acked — the receiver walks the ring in order, so an
// ack beyond the wrap proves the marker was seen.
func (s *Sender) completeAcked() {
	i := 0
	for ; i < len(s.unacked); i++ {
		f := s.unacked[i]
		d := seqDelta(s.acked, f.seq)
		if f.wrap {
			if d <= 0 {
				break
			}
		} else if d < 0 {
			break
		}
	}
	if i == 0 {
		return
	}
	acked := s.unacked[:i]
	s.unacked = s.unacked[i:]
	for _, f := range acked {
		if f.done != nil {
			f.done(nil)
		}
	}
}

// retransmit rewrites every unacked frame, byte-identical at its
// original ring offset (go-back-N: cumulative acks cannot name gaps).
// Offsets the receiver already consumed hold duplicates its
// lap-staleness check reads as empty, so over-sending is safe; offsets
// it never saw get the frame again. The round ends with an ack probe.
func (s *Sender) retransmit(i int, done func()) {
	if i >= len(s.unacked) {
		s.probe(done)
		return
	}
	f := s.unacked[i]
	s.stats.Retransmits++
	s.ring.Write(f.off, f.img, func(err error) {
		if err != nil {
			done()
			return
		}
		s.ring.Sync(func() { s.retransmit(i+1, done) })
	})
}

// probe writes an ack-probe pseudo-frame at the next fresh slot. If the
// receiver consumed everything and only the ack was lost, every
// retransmitted frame lands behind its poll position — invisible. The
// probe lands exactly where it polls and makes it repost the ack.
// Skipped while a send is in flight (fresh traffic is its own probe) or
// when the slot may still hold unconsumed data.
func (s *Sender) probe(done func()) {
	ring := s.par.RingBytes
	if s.busy || ring-(s.sent-s.consumed) < frameAlign {
		done()
		return
	}
	s.stats.Probes++
	s.ring.Write(s.sent%ring, packHeader(probeMark, s.seq), func(err error) {
		if err != nil {
			done()
			return
		}
		s.ring.Sync(done)
	})
}

// latchDead abandons the channel: the retransmit budget is spent, so
// every unacked frame, queued send and future Send completes with
// errs.ErrPeerDead. The latch is permanent — recovering a peer that
// came back later means opening a fresh channel.
func (s *Sender) latchDead() {
	s.dead = true
	unacked, queue := s.unacked, s.queue
	s.unacked, s.queue = nil, nil
	err := s.deadErr()
	for _, f := range unacked {
		if f.done != nil {
			f.done(err)
		}
	}
	for _, q := range queue {
		q.done(err)
	}
}

// Dead reports whether the sender has given the peer up.
func (s *Sender) Dead() bool { return s.dead }

// Put performs a one-sided rendezvous write into the receiver's bulk
// region at off (§IV.A): data lands directly at its final destination;
// synchronization happens separately through the ring.
func (s *Sender) Put(off uint64, data []byte, done func(error)) {
	if s.bulk == nil {
		done(fmt.Errorf("msg: channel opened without a bulk region"))
		return
	}
	s.stats.Puts++
	s.stats.PutBytes += uint64(len(data))
	s.bulk.Write(off, data, func(err error) {
		if err != nil {
			done(err)
			return
		}
		s.bulk.Sync(func() { done(nil) })
	})
}

// Receiver is the destination endpoint of a channel.
type Receiver struct {
	eng      *sim.Engine
	par      Params
	src, dst int

	ring *kernel.Window // local UC mapping of the ring
	fc   *kernel.Window // remote mapping of the sender's fc slot
	bulk *kernel.Window // optional local rendezvous region

	recvd      uint64 // monotone ring bytes consumed
	fcUnposted uint64 // consumed bytes not yet reported to the sender
	expectSeq  uint32 // sequence number of the last consumed frame
	stats      Stats
	stopped    bool

	// Reliable-mode state: repost throttling, so a parked probe or a
	// duplicate frame cannot make the receiver re-ack unboundedly.
	lastAckAt  sim.Time
	ackReposts int

	// Poll-loop state. Recv is single-outstanding, so the in-flight
	// delivery callback and peek position live on the receiver; peekFn
	// is the ring-read callback bound once, so the poll loop re-arms
	// without allocating a closure per iteration.
	pollCB  func([]byte, error)
	pollOff uint64
	peekFn  func([]byte, error)
	ownCB   func([]byte, error) // Recv's caller, served by ownFn
	ownFn   func([]byte, error)

	// Doorbell state (Params.Doorbell, opt-in). Instead of spinning
	// uncached reads on an empty ring, the poll loop parks; the NB
	// rings the doorbell inside the store-visibility event when a write
	// into the ring lands in DRAM, and the receiver polls again right
	// there — so an idle receiver schedules no events at all. dirty
	// flags a ring that happened while a peek read was in flight,
	// closing the race where the loop would park past fresh data.
	parked  bool
	dirty   bool
	unwatch func()
	noBell  bool // watch registration failed: legacy spin polling

	// Profiler handle for the receiving node, nil when profiling is off.
	// pollT0 stamps Recv entry; delivery observes poll-to-delivery.
	prof   *prof.NodeProf
	pollT0 sim.Time

	// In-flight consume state. Recv is single-outstanding, so the frame
	// being drained lives on the receiver and the tail-read, header-free
	// and flow-control continuations are built once — no closures per
	// delivered message. ackBuf/fcBuf are reusable store images: the CPU
	// store path stages bytes synchronously, so they are free for reuse
	// as soon as the Write call returns.
	csOff     uint64
	csFS      uint64
	csLen     int
	csBuf     []byte // long-frame assembly buffer, lent to each delivery
	csTail    func([]byte, error)
	fhAcked   bool
	fhDone    func(error)
	fhNoop    func(error)
	fcNoop    func()
	ackBuf    [8]byte
	fcBuf     [8]byte
	ackDone   func(error)
	ackSynced func()
	pfBusy    bool
	pfCont    func()
	pfDone    func(error)
}

// Stats returns a copy of the receiver's counters.
func (r *Receiver) Stats() Stats { return r.stats }

// Stop aborts any in-flight Recv poll loop at its next poll. A loop
// parked on the ring doorbell has no next poll, so it is failed
// immediately instead.
func (r *Receiver) Stop() {
	r.stopped = true
	if r.parked {
		r.parked = false
		if cb := r.pollCB; cb != nil {
			cb(nil, fmt.Errorf("msg: receiver stopped"))
		}
	}
}

// ReadBulk reads n bytes from the rendezvous region at off, with
// streaming loads (rendezvous payloads are bulk by definition). The
// data is borrowed from the load path and valid only until cb returns.
func (r *Receiver) ReadBulk(off uint64, n int, cb func([]byte, error)) {
	if r.bulk == nil {
		cb(nil, fmt.Errorf("msg: channel opened without a bulk region"))
		return
	}
	r.bulk.ReadStream(off, n, cb)
}

// Recv polls the ring until one message arrives, overwrites the slot
// header to free it (§IV.A), posts flow control if due, and delivers
// the payload. Slot freshness is sequence-validated: a header whose
// sequence predates the expected one is a leftover from a previous ring
// lap and reads as empty, so only the 8-byte header needs overwriting —
// scrubbing whole payloads with uncached stores would cost microseconds
// per frame. The poll loop advances virtual time by one uncached DRAM
// read per iteration, exactly like the real polling receive. Recv is
// the read-buffer ownership boundary: it runs RecvBorrowed and copies
// the payload at its edge, so the slice handed to cb is freshly
// allocated and belongs to the caller.
func (r *Receiver) Recv(cb func([]byte, error)) {
	r.ownCB = cb
	if r.ownFn == nil {
		r.ownFn = r.deliverOwned
	}
	r.RecvBorrowed(r.ownFn)
}

// deliverOwned is Recv's completion: the copy that turns the borrowed
// payload into the caller's own.
func (r *Receiver) deliverOwned(d []byte, err error) {
	cb := r.ownCB
	r.ownCB = nil
	cb(bytes.Clone(d), err)
}

// RecvBorrowed is Recv without the copy: the payload cb receives is
// borrowed from the receiver and the load path, valid only until cb
// returns, so a caller that keeps it copies. A caller that consumes the
// payload inside cb (MPI's receive pump decodes or copies each envelope
// where it lands) receives every message without allocating.
func (r *Receiver) RecvBorrowed(cb func([]byte, error)) {
	r.stopped = false
	r.pollCB = cb
	if r.prof != nil {
		r.pollT0 = r.eng.Now()
	}
	if r.peekFn == nil {
		r.peekFn = r.handlePeek
	}
	if r.par.Doorbell && r.unwatch == nil && !r.noBell {
		if un, err := r.ring.WatchWrites(0, r.par.RingBytes, r.onDoorbell); err == nil {
			r.unwatch = un
		} else {
			r.noBell = true
		}
	}
	r.poll()
}

// onDoorbell runs inside the NB's store-visibility event whenever a
// write into the ring lands in local DRAM: wake a parked poll loop, or
// flag an active one so it re-polls before parking.
func (r *Receiver) onDoorbell(uint64, int) {
	if r.parked {
		r.parked = false
		r.poll()
		return
	}
	r.dirty = true
}

// seqDelta compares sequence numbers with wraparound: >0 future, 0
// exact, <0 stale.
func seqDelta(got, want uint32) int32 { return int32(got - want) }

func (r *Receiver) poll() {
	if r.stopped {
		r.pollCB(nil, fmt.Errorf("msg: receiver stopped"))
		return
	}
	r.dirty = false // rings after this point must trigger a re-poll
	ring := r.par.RingBytes
	off := r.recvd % ring
	peek := uint64(64)
	if ring-off < peek {
		peek = ring - off
	}
	r.pollOff = off
	r.ring.Read(off, int(peek), r.peekFn)
}

// again re-arms the poll loop. Spin polling re-polls at once; in
// doorbell mode it re-polls only when a store landed during the last
// peek, otherwise it parks until the NB rings — an empty ring costs
// zero events.
func (r *Receiver) again() {
	if r.unwatch != nil {
		if r.dirty {
			r.poll()
			return
		}
		r.parked = true
		return
	}
	r.poll()
}

// handlePeek inspects the slot header the poll loop just read.
func (r *Receiver) handlePeek(d []byte, err error) {
	cb := r.pollCB
	if err != nil {
		cb(nil, err)
		return
	}
	off := r.pollOff
	ring := r.par.RingBytes
	length, seq := parseHeader(d[:headerBytes])
	switch {
	case length == 0:
		r.again()
	case length == probeMark:
		// Sender ack probe: it timed out without seeing our cumulative
		// ack. Matching sequence means we are fully caught up and only
		// the ack went missing — repost it. A mismatch is a stale probe
		// (or one racing real traffic); fresh frames overwrite it.
		if seqDelta(seq, r.expectSeq) == 0 {
			r.repostAck()
		}
		r.again()
	case length == wrapMark:
		if seqDelta(seq, r.expectSeq) != 0 {
			r.again() // stale wrap from a previous lap
			return
		}
		r.recvd += ring - off
		r.fcUnposted += ring - off
		r.freeRegion(off, ring-off, false)
		r.poll()
	default:
		switch delta := seqDelta(seq, r.expectSeq+1); {
		case delta < 0:
			r.repostAck() // duplicate from a retransmission round
			r.again()
		case delta > 0:
			r.stats.SeqErrors++
			cb(nil, fmt.Errorf("msg: sequence break: got %d, want %d", seq, r.expectSeq+1))
		default:
			r.consume(off, int(length), d, cb)
		}
	}
}

func (r *Receiver) consume(off uint64, length int, peek []byte, cb func([]byte, error)) {
	if length > r.par.MaxMessage() {
		r.stats.SeqErrors++
		cb(nil, fmt.Errorf("msg: corrupt frame length %d", length))
		return
	}
	r.expectSeq++
	r.csOff, r.csFS, r.csLen = off, frameSize(length), length
	if headerBytes+length <= len(peek) {
		// Short frame: the peek read holds the whole payload, delivered
		// borrowed straight out of the load buffer.
		r.deliver(peek[headerBytes:headerBytes+length], cb)
		return
	}
	// Long frame: the tail is guaranteed visible (sender fenced payload
	// before header), so drain it with pipelined streaming loads. peek
	// is borrowed from the load path and dies when this callback
	// returns, so its payload part starts the receiver's assembly
	// buffer, which grows to the largest message seen and is lent to
	// each delivery in turn.
	if cap(r.csBuf) < length {
		r.csBuf = make([]byte, 0, length)
	}
	r.csBuf = append(r.csBuf[:0], peek[headerBytes:]...)
	if r.csTail == nil {
		r.csTail = func(tail []byte, err error) {
			if err != nil {
				r.pollCB(nil, err)
				return
			}
			r.csBuf = append(r.csBuf, tail[:r.csLen-len(r.csBuf)]...)
			r.deliver(r.csBuf, r.pollCB)
		}
	}
	rest := length - (len(peek) - headerBytes)
	r.ring.ReadStream(off+uint64(len(peek)), (rest+7)/8*8, r.csTail)
}

// deliver hands one consumed frame's payload to the application.
// Counters advance first (the paper extracts the data, then overwrites
// the slot) so a chained Recv polls the next offset; the header
// overwrite and flow control proceed in the background, ordered so the
// sender only reuses the region after the slot is freed.
func (r *Receiver) deliver(payload []byte, cb func([]byte, error)) {
	r.recvd += r.csFS
	r.fcUnposted += r.csFS
	r.stats.Messages++
	r.stats.Bytes += uint64(r.csLen)
	if np := r.prof; np != nil {
		// Poll-to-delivery: Recv entry to payload handoff, covering
		// the empty-ring polling tail plus the frame drain.
		np.Observe(prof.NodeMsgPoll, r.eng.Now()-r.pollT0)
	}
	r.freeRegion(r.csOff, r.csFS, true)
	cb(payload, nil)
}

// freeRegion overwrites a consumed region's slot headers ("It then has
// to overwrite the slot to free it", §IV.A) and posts flow control —
// plus, for a consumed data frame in reliable mode, the cumulative
// ack — behind it. The zero image is shared and the completions are
// built once: freeing a region allocates nothing.
//
// Every 64-byte slot boundary the region covers is cleared, not just
// the frame's own header word. A multi-slot frame (or a skipped wrap
// remainder) leaves payload bytes at interior slot boundaries, and on
// the ring's next lap the receiver can peek one of those boundaries
// after the sender's payload stores land but before its header store
// does — a fresh slot must read as zero-length (empty), or stale
// payload gets parsed as a header and reported as a sequence break.
// The first lap gets this invariant for free from the virgin ring;
// freeing every boundary preserves it on every lap after.
func (r *Receiver) freeRegion(off, fs uint64, acked bool) {
	r.fhAcked = acked
	if r.fhDone == nil {
		r.fcNoop = func() {}
		r.fhNoop = func(error) {}
		r.fhDone = func(error) {
			if r.fhAcked && r.par.Reliable {
				r.ackReposts = 0
				r.postAck()
			}
			r.postFC(false, r.fcNoop)
		}
	}
	// Interior boundaries first; the frame's own header slot carries the
	// completion and is issued last, so flow control posts only after
	// every free in the region has been issued before it in program
	// order on the local store path.
	for tail := fs; tail > frameAlign; tail -= frameAlign {
		r.ring.Write(off+tail-frameAlign, zeroHeader[:], r.fhNoop)
	}
	r.ring.Write(off, zeroHeader[:], r.fhDone)
}

// postAck stores the cumulative consumed sequence number into the
// sender's flow-control page. The fabric is write-only, so an
// acknowledgment is itself just a remote posted store the sender polls
// locally (§IV.A) — and like any posted store it can vanish on a dead
// link; the sender's probe/retransmit timer covers that.
func (r *Receiver) postAck() {
	binary.LittleEndian.PutUint64(r.ackBuf[:], uint64(r.expectSeq))
	r.lastAckAt = r.eng.Now()
	r.stats.AcksPosted++
	if r.ackDone == nil {
		r.ackSynced = func() {}
		r.ackDone = func(err error) {
			if err == nil {
				r.fc.Sync(r.ackSynced)
			}
		}
	}
	r.fc.Write(ackOff, r.ackBuf[:], r.ackDone)
}

// repostAck re-posts the cumulative ack when the sender shows signs of
// having missed it (an ack probe, a duplicate frame). Throttled to half
// an ack timeout and bounded per ack value so a parked probe cannot
// spin the receiver forever.
func (r *Receiver) repostAck() {
	if !r.par.Reliable || r.ackReposts > r.par.RetransmitBudget {
		return
	}
	if r.lastAckAt != 0 && r.eng.Now()-r.lastAckAt < r.par.AckTimeout/2 {
		return
	}
	r.ackReposts++
	r.postAck()
}

// postFC reports consumed bytes to the sender's flow-control slot once
// the threshold accumulates (or immediately when forced).
func (r *Receiver) postFC(force bool, done func()) {
	if r.fcUnposted == 0 || (!force && r.fcUnposted < r.par.FCThreshold) {
		done()
		return
	}
	r.fcUnposted = 0
	r.stats.FCUpdates++
	if r.pfBusy {
		// A forced flush racing the background post: the built-once
		// continuation is occupied, so this rare path takes a one-off
		// image and closure.
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, r.recvd)
		r.fc.Write(0, buf, func(err error) {
			if err != nil {
				done()
				return
			}
			r.fc.Sync(done)
		})
		return
	}
	r.pfBusy = true
	binary.LittleEndian.PutUint64(r.fcBuf[:], r.recvd)
	r.pfCont = done
	if r.pfDone == nil {
		r.pfDone = func(err error) {
			done := r.pfCont
			r.pfCont = nil
			r.pfBusy = false
			if err != nil {
				done()
				return
			}
			r.fc.Sync(done)
		}
	}
	r.fc.Write(0, r.fcBuf[:], r.pfDone)
}

// FlushFC forces a flow-control update (used when going idle).
func (r *Receiver) FlushFC(done func()) { r.postFC(true, done) }
