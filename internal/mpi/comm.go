package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/errs"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Comm is one rank's endpoint: point-to-point operations plus the
// matching machinery.
type Comm struct {
	w      *World
	rank   int
	eng    *sim.Engine  // the rank's node engine (its partition on parallel runs)
	tracer trace.Tracer // the rank's partition-safe tracer, nil when disabled

	senders   []*msg.Sender   // senders[dst]: channel rank->dst
	receivers []*msg.Receiver // receivers[src]: channel src->rank

	peers []*peer // per source: matching queues and poll loop, built on first use

	rndvBusy    []bool          // per dst: rendezvous region in use
	rndvQueue   [][]sendTask    // per dst: sends waiting for the region
	rndvWaiters [][]func(error) // per dst: senders awaiting their ack

	epochs [opCount]int // per-collective instance counters
	stats  Stats

	// Free lists of the pooled operation records. Each record carries
	// its buffers and its continuations, built once, so a steady-state
	// send or collective allocates nothing.
	sendFree      freeList[sendOp]
	reduceFree    freeList[reduceOp]
	bcastFree     freeList[bcastOp]
	allreduceFree freeList[allreduceOp]

	// World.Metrics series: written by the rank's partition only, read
	// from any goroutine.
	barrierEnters, barrierExits, rndvStarts atomic.Uint64
}

// Stats counts per-rank MPI activity.
type Stats struct {
	EagerSends uint64
	RndvSends  uint64
	Recvs      uint64
	Unexpected uint64 // messages that arrived before their Recv
}

// recvReq is one posted receive. owned requests (the public Recv) get a
// fresh copy of the payload; the collectives consume theirs inside the
// callback and take it borrowed.
type recvReq struct {
	tag   int32
	owned bool
	cb    func([]byte, error)
}

type sendTask struct {
	tag  int
	data []byte
	done func(error)
}

func newComm(w *World, rank int, eng *sim.Engine, tracer trace.Tracer) *Comm {
	return &Comm{
		w:           w,
		rank:        rank,
		eng:         eng,
		tracer:      tracer,
		senders:     make([]*msg.Sender, w.n),
		receivers:   make([]*msg.Receiver, w.n),
		peers:       make([]*peer, w.n),
		rndvBusy:    make([]bool, w.n),
		rndvQueue:   make([][]sendTask, w.n),
		rndvWaiters: make([][]func(error), w.n),
	}
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.w.n }

// Stats returns a copy of the counters.
func (c *Comm) Stats() Stats { return c.stats }

// peer is the receive side of the channel from one source: its
// matching queues and its poll loop. One frame is in flight per
// channel, so the loop's continuations are built once per source.
type peer struct {
	c       *Comm
	src     int
	active  bool       // a poll loop is live on the channel
	inbox   []envelope // unmatched arrived messages (owned copies)
	waiting []recvReq  // posted receives, in posting order
	onFrame func([]byte, error)
	resume  func()
}

func (c *Comm) peer(src int) *peer {
	p := c.peers[src]
	if p == nil {
		p = &peer{c: c, src: src}
		p.onFrame, p.resume = p.frame, p.next
		c.peers[src] = p
	}
	return p
}

// need reports whether channel src must be polled: a receive is posted
// or a rendezvous ack from that peer is outstanding. Demand-driven
// pumping is what lets the event loop quiesce — a CPU that polls with
// nothing to wait for would spin virtual time forever.
func (c *Comm) need(src int) bool {
	p := c.peers[src]
	return (p != nil && len(p.waiting) > 0) || len(c.rndvWaiters[src]) > 0
}

// ensurePump starts the poll loop on channel src if it is needed and
// not already live. Messages that arrive while nobody polls simply wait
// in the ring — flow control holds the sender off once it fills.
func (c *Comm) ensurePump(src int) {
	p := c.peer(src)
	if p.active || !c.need(src) {
		return
	}
	p.active = true
	p.poll()
}

// poll receives the next frame borrowed: the envelope is decoded and
// delivered, copied only where it must outlive the callback.
func (p *peer) poll() { p.c.receivers[p.src].RecvBorrowed(p.onFrame) }

func (p *peer) frame(raw []byte, err error) {
	if err != nil {
		// Protocol fault: surface it to every waiting receive.
		p.active = false
		for _, req := range p.waiting {
			req.cb(nil, err)
		}
		p.waiting = nil
		return
	}
	env, derr := decodeEnvelope(raw)
	if derr != nil {
		p.poll()
		return
	}
	p.c.dispatch(p, env)
}

// next keeps polling while the channel is needed.
func (p *peer) next() {
	if p.c.need(p.src) {
		p.poll()
	} else {
		p.active = false
	}
}

// dispatch handles one arrived envelope, then continues p's poll
// loop. The envelope's data is borrowed from the receive pump.
func (c *Comm) dispatch(p *peer, env envelope) {
	src := p.src
	switch env.kind {
	case kindEager:
		p.deliver(env.tag, env.data)
		p.next()
	case kindRndv:
		off, length, err := decodeRndv(env.data)
		if err != nil {
			p.next()
			return
		}
		tag := env.tag
		// Pull the payload out of the rendezvous region, ack, deliver.
		c.receivers[src].ReadBulk(off, length, func(data []byte, err error) {
			if err != nil {
				p.next()
				return
			}
			ack := encodeEnvelope(envelope{kind: kindRndvAck, tag: tag})
			c.senders[src].Send(ack, func(error) {})
			p.deliver(tag, data)
			p.next()
		})
	case kindRndvAck:
		c.rndvBusy[src] = false
		c.drainRndvQueue(src)
		p.next()
	default:
		p.next()
	}
}

// deliver matches a payload against posted receives or parks it. data
// is borrowed from the receive path: a posted collective receive takes
// it as is, a public Recv takes a fresh copy, and an unexpected message
// parks as an owned copy.
func (p *peer) deliver(tag int32, data []byte) {
	for i, req := range p.waiting {
		if req.tag == AnyTag || req.tag == tag {
			p.waiting = deleteAt(p.waiting, i)
			p.c.stats.Recvs++
			if req.owned {
				data = bytes.Clone(data)
			}
			req.cb(data, nil)
			return
		}
	}
	p.c.stats.Unexpected++
	p.inbox = append(p.inbox, envelope{kind: kindEager, tag: tag, data: bytes.Clone(data)})
}

// deleteAt removes q[i] in place, keeping the order of the rest.
func deleteAt[T any](q []T, i int) []T {
	copy(q[i:], q[i+1:])
	var zero T
	q[len(q)-1] = zero
	return q[:len(q)-1]
}

// Send transmits data to rank dst with the given tag. done fires when
// the send buffer is reusable: immediately after the eager store for
// small payloads, or at rendezvous acknowledgement for large ones.
func (c *Comm) Send(dst, tag int, data []byte, done func(error)) {
	if dst < 0 || dst >= c.w.n || dst == c.rank {
		done(fmt.Errorf("mpi: invalid destination rank %d", dst))
		return
	}
	if tag < 0 || tag >= internalTagBase {
		done(fmt.Errorf("mpi: tag %d outside 0..%d", tag, internalTagBase-1))
		return
	}
	c.send(dst, tag, data, done)
}

// send is the unchecked path collectives use (they own the internal tag
// space). Every completion is watched for errs.ErrPeerDead — the one
// failure a write-only fabric can detect, raised by a reliable channel
// whose retransmit budget ran out — and feeds the world's failure
// detector before reaching the caller. An eager payload is copied into
// a pooled envelope before send returns, so the caller's data is free
// at once; a rendezvous payload must stay valid until done.
func (c *Comm) send(dst, tag int, data []byte, done func(error)) {
	if len(data) > c.w.cfg.EagerLimit {
		c.sendLarge(dst, tag, data, done)
		return
	}
	op := c.getSend(dst, tag, len(data), done)
	op.env = append(op.env, data...)
	c.sendEager(op)
}

// sendFloats sends vec as a float64 payload, encoding it straight into
// the envelope.
func (c *Comm) sendFloats(dst, tag int, vec []float64, done func(error)) {
	if 8*len(vec) > c.w.cfg.EagerLimit {
		c.sendLarge(dst, tag, Float64s(vec), done)
		return
	}
	op := c.getSend(dst, tag, 8*len(vec), done)
	op.env = appendFloat64s(op.env, vec)
	c.sendEager(op)
}

// sendOp is one eager send in flight: its envelope image, which
// msg.Sender.Send keeps until the frame is written, and the completion
// that recycles both.
type sendOp struct {
	c    *Comm
	dst  int
	env  []byte
	done func(error)
	fin  func(error) // op.finish, bound once
}

// getSend takes a pooled send record and starts its envelope header.
// The envelope grows once to fit an n-byte payload, so a record's
// buffer ends sized to the largest message it carried.
func (c *Comm) getSend(dst, tag, n int, done func(error)) *sendOp {
	op := c.sendFree.pop()
	if op == nil {
		op = &sendOp{c: c}
		op.fin = op.finish
	}
	op.dst, op.done = dst, done
	op.env = appendEnvelopeHeader(slices.Grow(op.env[:0], envelopeHeader+n), kindEager, int32(tag))
	return op
}

func (c *Comm) sendEager(op *sendOp) {
	c.stats.EagerSends++
	c.senders[op.dst].Send(op.env, op.fin)
}

// finish recycles the record — the frame is written, so its envelope
// is free — and then completes the send.
func (op *sendOp) finish(err error) {
	c, dst, done := op.c, op.dst, op.done
	op.done = nil
	c.sendFree.push(op)
	if err != nil && errors.Is(err, errs.ErrPeerDead) {
		c.w.noteFault(dst)
	}
	done(err)
}

// sendLarge starts a rendezvous send, or queues it behind the one
// already holding dst's region.
func (c *Comm) sendLarge(dst, tag int, data []byte, done func(error)) {
	inner := done
	done = func(err error) {
		if err != nil && errors.Is(err, errs.ErrPeerDead) {
			c.w.noteFault(dst)
		}
		inner(err)
	}
	if c.rndvBusy[dst] {
		c.rndvQueue[dst] = append(c.rndvQueue[dst], sendTask{tag: tag, data: data, done: done})
		return
	}
	c.sendRndv(dst, tag, data, done)
}

func (c *Comm) sendRndv(dst, tag int, data []byte, done func(error)) {
	if uint64(len(data)) > c.w.cfg.Msg.BulkBytes {
		done(fmt.Errorf("mpi: %d-byte message exceeds %d-byte rendezvous region",
			len(data), c.w.cfg.Msg.BulkBytes))
		return
	}
	c.rndvBusy[dst] = true
	c.stats.RndvSends++
	c.rndvStarts.Add(1)
	if c.tracer != nil {
		c.tracer.Emit(trace.Event{
			At: c.eng.Now(), Kind: trace.KindRendezvousStart,
			Node: c.rank, Link: -1, Src: c.rank, Dst: dst, Bytes: len(data),
		})
	}
	c.senders[dst].Put(0, data, func(err error) {
		if err != nil {
			c.rndvBusy[dst] = false
			done(err)
			return
		}
		env := encodeEnvelope(envelope{kind: kindRndv, tag: int32(tag),
			data: encodeRndv(0, len(data))})
		c.senders[dst].Send(env, func(err error) {
			// done fires at ack; Send completion only covers the notify.
			if err != nil {
				c.rndvBusy[dst] = false
				done(err)
				return
			}
			c.rndvDone(dst, done)
		})
	})
}

// rndvDone arranges for done to fire when the ack for dst arrives. Acks
// are serialized per destination, so the first pending waiter owns the
// next ack.
func (c *Comm) rndvDone(dst int, done func(error)) {
	c.rndvWaiters[dst] = append(c.rndvWaiters[dst], done)
	c.ensurePump(dst) // the ack arrives on the reverse channel
}

func (c *Comm) drainRndvQueue(dst int) {
	// Complete the waiter whose transfer was just acked.
	if ws := c.rndvWaiters[dst]; len(ws) > 0 {
		c.rndvWaiters[dst] = ws[1:]
		if c.tracer != nil {
			c.tracer.Emit(trace.Event{
				At: c.eng.Now(), Kind: trace.KindRendezvousDone,
				Node: c.rank, Link: -1, Src: c.rank, Dst: dst,
			})
		}
		ws[0](nil)
	}
	if q := c.rndvQueue[dst]; len(q) > 0 && !c.rndvBusy[dst] {
		c.rndvQueue[dst] = q[1:]
		c.sendRndv(dst, q[0].tag, q[0].data, q[0].done)
	}
}

// Recv posts a receive for a message from rank src with the given tag
// (or AnyTag). Out-of-order arrivals are matched from the unexpected-
// message queue first. The payload cb receives is owned by the caller.
func (c *Comm) Recv(src, tag int, cb func([]byte, error)) {
	if src < 0 || src >= c.w.n || src == c.rank {
		cb(nil, fmt.Errorf("mpi: invalid source rank %d", src))
		return
	}
	c.recv(src, tag, true, cb)
}

// recv is the unchecked receive. Unless owned, the payload is borrowed
// until cb returns.
func (c *Comm) recv(src, tag int, owned bool, cb func([]byte, error)) {
	p := c.peer(src)
	for i, env := range p.inbox {
		if tag == AnyTag || env.tag == int32(tag) {
			// Parked as an owned copy, so either kind of receive takes it.
			p.inbox = deleteAt(p.inbox, i)
			c.stats.Recvs++
			cb(env.data, nil)
			return
		}
	}
	p.waiting = append(p.waiting, recvReq{tag: int32(tag), owned: owned, cb: cb})
	c.ensurePump(src)
}

// SendRecv performs a simultaneous exchange with peer (both directions
// in flight at once), completing when both halves are done.
func (c *Comm) SendRecv(peer, tag int, data []byte, cb func([]byte, error)) {
	var got []byte
	var firstErr error
	pending := 2
	finish := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		pending--
		if pending == 0 {
			cb(got, firstErr)
		}
	}
	c.Recv(peer, tag, func(d []byte, err error) {
		got = d
		finish(err)
	})
	c.Send(peer, tag, data, finish)
}
