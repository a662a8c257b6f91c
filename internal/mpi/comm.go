package mpi

import (
	"errors"
	"fmt"
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

	inbox   map[int][]envelope // unmatched arrived messages, per source
	waiting map[int][]*recvReq // posted receives, per source

	rndvBusy    []bool          // per dst: rendezvous region in use
	rndvQueue   [][]sendTask    // per dst: sends waiting for the region
	rndvWaiters [][]func(error) // per dst: senders awaiting their ack

	pumpActive []bool // per src: a poll loop is live on that channel

	epochs map[int]int // per-collective instance counters
	stats  Stats

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

type recvReq struct {
	tag int32
	cb  func([]byte, error)
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
		inbox:       make(map[int][]envelope),
		waiting:     make(map[int][]*recvReq),
		rndvBusy:    make([]bool, w.n),
		rndvQueue:   make([][]sendTask, w.n),
		rndvWaiters: make([][]func(error), w.n),
		pumpActive:  make([]bool, w.n),
	}
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.w.n }

// Stats returns a copy of the counters.
func (c *Comm) Stats() Stats { return c.stats }

// need reports whether channel src must be polled: a receive is posted
// or a rendezvous ack from that peer is outstanding. Demand-driven
// pumping is what lets the event loop quiesce — a CPU that polls with
// nothing to wait for would spin virtual time forever.
func (c *Comm) need(src int) bool {
	return len(c.waiting[src]) > 0 || len(c.rndvWaiters[src]) > 0
}

// ensurePump starts the poll loop on channel src if it is needed and
// not already live. Messages that arrive while nobody polls simply wait
// in the ring — flow control holds the sender off once it fills.
func (c *Comm) ensurePump(src int) {
	if c.pumpActive[src] || !c.need(src) {
		return
	}
	c.pumpActive[src] = true
	c.pump(src)
}

func (c *Comm) pump(src int) {
	c.receivers[src].Recv(func(raw []byte, err error) {
		if err != nil {
			// Protocol fault: surface it to every waiting receive.
			c.pumpActive[src] = false
			for _, req := range c.waiting[src] {
				req.cb(nil, err)
			}
			c.waiting[src] = nil
			return
		}
		env, derr := decodeEnvelope(raw)
		if derr != nil {
			c.pump(src)
			return
		}
		c.dispatch(src, env, func() {
			if c.need(src) {
				c.pump(src)
			} else {
				c.pumpActive[src] = false
			}
		})
	})
}

// dispatch handles one arrived envelope, then continues via next.
func (c *Comm) dispatch(src int, env envelope, next func()) {
	switch env.kind {
	case kindEager:
		c.deliver(src, env.tag, env.data)
		next()
	case kindRndv:
		off, length, err := decodeRndv(env.data)
		if err != nil {
			next()
			return
		}
		// Pull the payload out of the rendezvous region, ack, deliver.
		c.receivers[src].ReadBulk(off, length, func(data []byte, err error) {
			if err != nil {
				next()
				return
			}
			ack := encodeEnvelope(envelope{kind: kindRndvAck, tag: env.tag})
			c.senders[src].Send(ack, func(error) {})
			// ReadBulk lends its buffer only until this callback returns.
			c.deliver(src, env.tag, append([]byte(nil), data...))
			next()
		})
	case kindRndvAck:
		c.rndvBusy[src] = false
		c.drainRndvQueue(src)
		next()
	default:
		next()
	}
}

// deliver matches a payload against posted receives or parks it. data
// is owned: an eager payload is a subslice of the fresh buffer msg.Recv
// handed out, and rendezvous data is copied out of the borrowed bulk
// read by the caller, so neither path copies again here.
func (c *Comm) deliver(src int, tag int32, data []byte) {
	reqs := c.waiting[src]
	for i, req := range reqs {
		if req.tag == AnyTag || req.tag == tag {
			c.waiting[src] = append(reqs[:i:i], reqs[i+1:]...)
			c.stats.Recvs++
			req.cb(data, nil)
			return
		}
	}
	c.stats.Unexpected++
	c.inbox[src] = append(c.inbox[src], envelope{kind: kindEager, tag: tag, data: data})
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
// detector before reaching the caller.
func (c *Comm) send(dst, tag int, data []byte, done func(error)) {
	inner := done
	done = func(err error) {
		if err != nil && errors.Is(err, errs.ErrPeerDead) {
			c.w.noteFault(dst)
		}
		inner(err)
	}
	if len(data) <= c.w.cfg.EagerLimit {
		c.stats.EagerSends++
		env := encodeEnvelope(envelope{kind: kindEager, tag: int32(tag), data: data})
		c.senders[dst].Send(env, done)
		return
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
// message queue first.
func (c *Comm) Recv(src, tag int, cb func([]byte, error)) {
	if src < 0 || src >= c.w.n || src == c.rank {
		cb(nil, fmt.Errorf("mpi: invalid source rank %d", src))
		return
	}
	for i, env := range c.inbox[src] {
		if tag == AnyTag || env.tag == int32(tag) {
			c.inbox[src] = append(c.inbox[src][:i:i], c.inbox[src][i+1:]...)
			c.stats.Recvs++
			cb(env.data, nil)
			return
		}
	}
	c.waiting[src] = append(c.waiting[src], &recvReq{tag: int32(tag), cb: cb})
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
