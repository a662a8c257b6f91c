// Package pgas implements the partitioned-global-address-space
// programming model the paper targets alongside MPI (§IV.A): a global
// byte array partitioned across nodes, relaxed-consistency Put through
// direct remote stores, Fence for strict ordering, software barriers
// built from remote stores and uncached polling exactly as the paper
// prescribes, and Get served by an active-message loop (reads cannot
// cross a TCCluster link, so a Get is a request message answered with a
// remote store).
package pgas

import (
	"encoding/binary"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/msg"
)

// Config configures a Space.
type Config struct {
	// SegBytes is each node's slice of the global array. It must fit in
	// the UC window alongside the control structures.
	SegBytes uint64
	// Msg configures the Get/active-message channels.
	Msg msg.Params
}

// DefaultConfig returns a small symmetric space.
func DefaultConfig() Config {
	return Config{SegBytes: 256 << 10, Msg: msg.DefaultParams()}
}

// Space is a global address space of n*SegBytes bytes, node i owning
// bytes [i*SegBytes, (i+1)*SegBytes).
type Space struct {
	os  *kernel.OS
	cfg Config
	n   int

	nodes []*nodeCtx
}

type nodeCtx struct {
	idx     int
	local   *kernel.Window   // own segment
	remote  []*kernel.Window // remote[j]: node j's segment
	ctrlTx  []*msg.Sender    // ctrlTx[j]: AM channel idx -> j
	ctrlRx  []*msg.Receiver  // ctrlRx[j]: AM channel j -> idx
	serving bool

	// Barrier state (paper-style remote-store barrier).
	barLocal  *kernel.Window   // own barrier page
	barRemote []*kernel.Window // barRemote[j]: node j's barrier page
	epoch     uint64

	getSeq     uint32
	getPending []map[uint32]func([]byte, error) // per owner
	replyPump  []bool                           // per owner: reply poll loop live

	// Read-modify-write serialization: requests arrive on independent
	// per-source channels, so atomics must queue through one drain.
	rmwBusy  bool
	rmwQueue []func(done func())

	stats Stats
}

// enqueueRMW runs op after all previously enqueued read-modify-writes
// have completed: the owner-side lock that makes FetchAdd atomic across
// requesters.
func (nc *nodeCtx) enqueueRMW(op func(done func())) {
	nc.rmwQueue = append(nc.rmwQueue, op)
	if !nc.rmwBusy {
		nc.rmwBusy = true
		nc.drainRMW()
	}
}

func (nc *nodeCtx) drainRMW() {
	if len(nc.rmwQueue) == 0 {
		nc.rmwBusy = false
		return
	}
	op := nc.rmwQueue[0]
	nc.rmwQueue = nc.rmwQueue[1:]
	op(func() { nc.drainRMW() })
}

// Stats counts per-node PGAS activity.
type Stats struct {
	Puts     uint64
	PutBytes uint64
	Gets     uint64
	GetBytes uint64
	Barriers uint64
	AMServed uint64
}

// barrier page layout: arrive cells (8B per node) at 0, release cell at
// offset releaseOff.
const releaseOff = 2048

// New builds a Space over the cluster.
func New(os *kernel.OS, cfg Config) (*Space, error) {
	if cfg.SegBytes == 0 {
		cfg = DefaultConfig()
	}
	if cfg.SegBytes%kernel.PageSize != 0 {
		return nil, fmt.Errorf("pgas: segment size %#x not page granular", cfg.SegBytes)
	}
	n := os.Cluster().N()
	s := &Space{os: os, cfg: cfg, n: n}

	segOff := make([]uint64, n)
	barOff := make([]uint64, n)
	for i := 0; i < n; i++ {
		k := os.Kernel(i)
		var err error
		if segOff[i], err = k.AllocUC(cfg.SegBytes); err != nil {
			return nil, fmt.Errorf("pgas: node %d segment: %w", i, err)
		}
		if barOff[i], err = k.AllocUC(kernel.PageSize); err != nil {
			return nil, fmt.Errorf("pgas: node %d barrier page: %w", i, err)
		}
	}
	for i := 0; i < n; i++ {
		k := os.Kernel(i)
		nc := &nodeCtx{
			idx:        i,
			remote:     make([]*kernel.Window, n),
			barRemote:  make([]*kernel.Window, n),
			ctrlTx:     make([]*msg.Sender, n),
			ctrlRx:     make([]*msg.Receiver, n),
			getPending: make([]map[uint32]func([]byte, error), n),
			replyPump:  make([]bool, n),
		}
		for j := 0; j < n; j++ {
			nc.getPending[j] = make(map[uint32]func([]byte, error))
		}
		var err error
		if nc.local, err = k.MapLocal(segOff[i], cfg.SegBytes); err != nil {
			return nil, err
		}
		if nc.barLocal, err = k.MapLocal(barOff[i], kernel.PageSize); err != nil {
			return nil, err
		}
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if nc.remote[j], err = k.MapRemote(j, segOff[j], cfg.SegBytes); err != nil {
				return nil, err
			}
			if nc.barRemote[j], err = k.MapRemote(j, barOff[j], kernel.PageSize); err != nil {
				return nil, err
			}
		}
		s.nodes = append(s.nodes, nc)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			tx, rx, err := msg.Open(os, i, j, cfg.Msg)
			if err != nil {
				return nil, fmt.Errorf("pgas: AM channel %d->%d: %w", i, j, err)
			}
			s.nodes[i].ctrlTx[j] = tx
			s.nodes[j].ctrlRx[i] = rx
		}
	}
	return s, nil
}

// N returns the node count.
func (s *Space) N() int { return s.n }

// Size returns the total bytes of the global array.
func (s *Space) Size() uint64 { return uint64(s.n) * s.cfg.SegBytes }

// Stats returns node i's counters.
func (s *Space) Stats(node int) Stats { return s.nodes[node].stats }

// Owner returns the node owning global offset off and the local offset
// within its segment.
func (s *Space) Owner(off uint64) (node int, local uint64) {
	return int(off / s.cfg.SegBytes), off % s.cfg.SegBytes
}

func (s *Space) check(off uint64, n int) error {
	if n < 0 || off >= s.Size() || uint64(n) > s.Size()-off {
		return fmt.Errorf("pgas: access [%#x,+%d) outside %#x-byte space", off, n, s.Size())
	}
	owner, local := s.Owner(off)
	if uint64(n) > s.cfg.SegBytes-local {
		return fmt.Errorf("pgas: access [%#x,+%d) crosses the segment boundary of node %d", off, n, owner)
	}
	return nil
}

// Put stores data at global offset off on behalf of node from, with
// relaxed consistency (no fence): the paper's straightforward data-
// transfer path.
func (s *Space) Put(from int, off uint64, data []byte, done func(error)) {
	if err := s.check(off, len(data)); err != nil {
		done(err)
		return
	}
	nc := s.nodes[from]
	nc.stats.Puts++
	nc.stats.PutBytes += uint64(len(data))
	owner, local := s.Owner(off)
	if owner == from {
		nc.local.Write(local, data, done)
		return
	}
	nc.remote[owner].Write(local, data, done)
}

// Fence serializes node from's prior Puts (Sfence): combined with Put
// it yields the strict ordering PGAS models call sequential consistency
// enforcement.
func (s *Space) Fence(from int, done func()) {
	s.os.Kernel(from).Node().Core().Sfence(done)
}

// PutStrict is Put followed by Fence.
func (s *Space) PutStrict(from int, off uint64, data []byte, done func(error)) {
	s.Put(from, off, data, func(err error) {
		if err != nil {
			done(err)
			return
		}
		s.Fence(from, func() { done(nil) })
	})
}

// Get reads n bytes at global offset off on behalf of node from. Local
// gets read the segment directly; remote gets become an active message
// answered by the owner — which must be Serving.
func (s *Space) Get(from int, off uint64, n int, cb func([]byte, error)) {
	if err := s.check(off, n); err != nil {
		cb(nil, err)
		return
	}
	nc := s.nodes[from]
	nc.stats.Gets++
	nc.stats.GetBytes += uint64(n)
	owner, local := s.Owner(off)
	if owner == from {
		// The load path lends its buffer only until the callback
		// returns; a Get result belongs to the caller.
		nc.local.Read(local, n, func(data []byte, err error) {
			if err != nil {
				cb(nil, err)
				return
			}
			cb(append([]byte(nil), data...), nil)
		})
		return
	}
	if !s.nodes[owner].serving {
		cb(nil, fmt.Errorf("pgas: node %d is not serving gets (reads cannot cross a TCCluster link; the owner must run the AM service loop)", owner))
		return
	}
	nc.getSeq++
	id := nc.getSeq
	nc.getPending[owner][id] = cb
	req := make([]byte, 21)
	req[0] = amGet
	binary.LittleEndian.PutUint32(req[1:5], id)
	binary.LittleEndian.PutUint64(req[5:13], local)
	binary.LittleEndian.PutUint64(req[13:21], uint64(n))
	nc.ctrlTx[owner].Send(req, func(err error) {
		if err != nil {
			delete(nc.getPending[owner], id)
			cb(nil, err)
		}
	})
	// The reply arrives on the reverse channel; one pump per channel.
	if !nc.replyPump[owner] {
		nc.replyPump[owner] = true
		s.pumpReplies(from, owner)
	}
}

// Active-message opcodes.
const (
	amGet = iota + 1
	amGetReply
	amFetchAdd
	amFetchAddReply
)

// Serve starts node i's active-message service loop: it polls every
// incoming channel and answers Get requests. Stop with StopServing;
// while serving, the node's poll loops keep virtual time advancing.
func (s *Space) Serve(node int) {
	nc := s.nodes[node]
	if nc.serving {
		return
	}
	nc.serving = true
	for src := range nc.ctrlRx {
		if nc.ctrlRx[src] != nil {
			s.serveChannel(node, src)
		}
	}
}

// StopServing halts node i's service loop at each channel's next poll.
func (s *Space) StopServing(node int) {
	nc := s.nodes[node]
	nc.serving = false
	for _, rx := range nc.ctrlRx {
		if rx != nil {
			rx.Stop()
		}
	}
}

// Serving reports whether node i runs the AM service loop.
func (s *Space) Serving(node int) bool { return s.nodes[node].serving }

func (s *Space) serveChannel(node, src int) {
	nc := s.nodes[node]
	nc.ctrlRx[src].Recv(func(m []byte, err error) {
		if err != nil || !nc.serving {
			return // stopped
		}
		switch {
		case len(m) >= 21 && m[0] == amGet:
			id := binary.LittleEndian.Uint32(m[1:5])
			local := binary.LittleEndian.Uint64(m[5:13])
			length := int(binary.LittleEndian.Uint64(m[13:21]))
			nc.stats.AMServed++
			nc.local.Read(local, length, func(data []byte, rerr error) {
				reply := make([]byte, 5+len(data))
				reply[0] = amGetReply
				binary.LittleEndian.PutUint32(reply[1:5], id)
				copy(reply[5:], data)
				nc.ctrlTx[src].Send(reply, func(error) {})
				s.serveChannel(node, src)
			})
			return
		case len(m) >= 21 && m[0] == amFetchAdd:
			id := binary.LittleEndian.Uint32(m[1:5])
			local := binary.LittleEndian.Uint64(m[5:13])
			delta := binary.LittleEndian.Uint64(m[13:21])
			nc.stats.AMServed++
			// Owner-side read-modify-write: the only way a write-only
			// network can offer atomics. Requests arrive on independent
			// per-source channels, so the RMW itself goes through the
			// owner's serialization queue; the channel pump continues
			// immediately.
			nc.enqueueRMW(func(done func()) {
				nc.local.Read(local, 8, func(data []byte, rerr error) {
					if rerr != nil {
						done()
						return
					}
					old := binary.LittleEndian.Uint64(data)
					upd := make([]byte, 8)
					binary.LittleEndian.PutUint64(upd, old+delta)
					nc.local.Write(local, upd, func(error) {
						reply := make([]byte, 13)
						reply[0] = amFetchAddReply
						binary.LittleEndian.PutUint32(reply[1:5], id)
						binary.LittleEndian.PutUint64(reply[5:13], old)
						nc.ctrlTx[src].Send(reply, func(error) {})
						done()
					})
				})
			})
			s.serveChannel(node, src)
			return
		}
		s.serveChannel(node, src)
	})
}

// FetchAdd atomically adds delta to the 8-byte counter at global offset
// off and returns the previous value. Local fetch-adds apply directly;
// remote ones are served by the owner's AM loop, which serializes them.
func (s *Space) FetchAdd(from int, off uint64, delta uint64, cb func(uint64, error)) {
	if err := s.check(off, 8); err != nil {
		cb(0, err)
		return
	}
	if off%8 != 0 {
		cb(0, fmt.Errorf("pgas: fetch-add at %#x not 8-byte aligned", off))
		return
	}
	nc := s.nodes[from]
	owner, local := s.Owner(off)
	if owner == from {
		// Local atomics share the same serialization queue as AM-served
		// ones, or they could interleave with a remote requester's RMW.
		nc.enqueueRMW(func(done func()) {
			nc.local.Read(local, 8, func(data []byte, err error) {
				if err != nil {
					done()
					cb(0, err)
					return
				}
				old := binary.LittleEndian.Uint64(data)
				upd := make([]byte, 8)
				binary.LittleEndian.PutUint64(upd, old+delta)
				nc.local.Write(local, upd, func(err error) {
					done()
					cb(old, err)
				})
			})
		})
		return
	}
	if !s.nodes[owner].serving {
		cb(0, fmt.Errorf("pgas: node %d is not serving (fetch-add needs the owner's AM loop)", owner))
		return
	}
	nc.getSeq++
	id := nc.getSeq
	nc.getPending[owner][id] = func(data []byte, err error) {
		if err != nil {
			cb(0, err)
			return
		}
		if len(data) < 8 {
			cb(0, fmt.Errorf("pgas: short fetch-add reply"))
			return
		}
		cb(binary.LittleEndian.Uint64(data), nil)
	}
	req := make([]byte, 21)
	req[0] = amFetchAdd
	binary.LittleEndian.PutUint32(req[1:5], id)
	binary.LittleEndian.PutUint64(req[5:13], local)
	binary.LittleEndian.PutUint64(req[13:21], delta)
	nc.ctrlTx[owner].Send(req, func(err error) {
		if err != nil {
			delete(nc.getPending[owner], id)
			cb(0, err)
		}
	})
	if !nc.replyPump[owner] {
		nc.replyPump[owner] = true
		s.pumpReplies(from, owner)
	}
}

// pumpReplies polls the owner->from channel until the pending replies
// for that pair drain, then stops.
func (s *Space) pumpReplies(from, owner int) {
	nc := s.nodes[from]
	nc.ctrlRx[owner].Recv(func(m []byte, err error) {
		if err != nil {
			nc.replyPump[owner] = false
			return
		}
		if len(m) >= 5 && (m[0] == amGetReply || m[0] == amFetchAddReply) {
			id := binary.LittleEndian.Uint32(m[1:5])
			if cb, ok := nc.getPending[owner][id]; ok {
				delete(nc.getPending[owner], id)
				cb(append([]byte(nil), m[5:]...), nil)
			}
		}
		if len(nc.getPending[owner]) > 0 {
			s.pumpReplies(from, owner)
		} else {
			nc.replyPump[owner] = false
		}
	})
}

// Barrier synchronizes all n nodes with remote stores and uncached
// polling (§IV.A "software barriers"): every node posts its arrival
// epoch into node 0's barrier page; node 0 gathers them and posts the
// release epoch into every node's page; everyone polls locally. done
// fires per node.
func (s *Space) Barrier(node int, done func(error)) {
	nc := s.nodes[node]
	nc.epoch++
	nc.stats.Barriers++
	epoch := nc.epoch
	cell := make([]byte, 8)
	binary.LittleEndian.PutUint64(cell, epoch)

	if node == 0 {
		// Mark own arrival locally, then gather.
		nc.barLocal.Write(uint64(0), cell, func(err error) {
			if err != nil {
				done(err)
				return
			}
			s.gatherBarrier(epoch, done)
		})
		return
	}
	// Post arrival into node 0's page, then poll the local release cell.
	nc.barRemote[0].Write(uint64(node*8), cell, func(err error) {
		if err != nil {
			done(err)
			return
		}
		s.Fence(node, func() {
			s.pollRelease(node, epoch, done)
		})
	})
}

func (s *Space) gatherBarrier(epoch uint64, done func(error)) {
	nc := s.nodes[0]
	var scan func(i int)
	scan = func(i int) {
		if i >= s.n {
			// All arrived: release everyone.
			cell := make([]byte, 8)
			binary.LittleEndian.PutUint64(cell, epoch)
			pending := s.n - 1
			if pending == 0 {
				done(nil)
				return
			}
			for j := 1; j < s.n; j++ {
				nc.barRemote[j].Write(releaseOff, cell, func(err error) {
					pending--
					if pending == 0 {
						s.Fence(0, func() { done(nil) })
					}
				})
			}
			return
		}
		nc.barLocal.Read(uint64(i*8), 8, func(d []byte, err error) {
			if err != nil {
				done(err)
				return
			}
			if binary.LittleEndian.Uint64(d) >= epoch {
				scan(i + 1)
			} else {
				scan(i) // keep polling this arrival cell
			}
		})
	}
	scan(0)
}

func (s *Space) pollRelease(node int, epoch uint64, done func(error)) {
	nc := s.nodes[node]
	nc.barLocal.Read(releaseOff, 8, func(d []byte, err error) {
		if err != nil {
			done(err)
			return
		}
		if binary.LittleEndian.Uint64(d) >= epoch {
			done(nil)
			return
		}
		s.pollRelease(node, epoch, done)
	})
}
