// Package mpi is the middleware layer the paper names as its next step
// (§VII): an MPI-flavored message-passing interface built entirely on
// the TCCluster message library — eager sends through the 4 KB rings,
// rendezvous transfers through one-sided Put regions, and tree/
// dissemination collectives. Everything is callback-driven on the
// simulation engine: an operation completes when its callback fires.
//
// Buffers follow one rule. A payload handed to Recv's callback is owned
// by the caller. A collective's result (Bcast, Reduce, Allreduce,
// AllreduceRing) is borrowed: it is valid until the callback returns,
// and a collective started inside the callback never overwrites it.
// Data passed to Send and the collectives is copied before they return,
// except a rendezvous-sized payload, which must stay valid until done.
package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/kernel"
	"repro/internal/msg"
	"repro/internal/trace"
)

// AnyTag matches any tag in Recv.
const AnyTag = -1

// internalTagBase marks the tag space reserved for collectives.
const internalTagBase = 1 << 30

// Config configures a World.
type Config struct {
	// Msg configures each underlying channel. BulkBytes (rendezvous
	// region) defaults to 256 KB per channel when zero.
	Msg msg.Params
	// EagerLimit is the largest payload sent through the ring; larger
	// payloads use the rendezvous path. Default 2048.
	EagerLimit int
}

// DefaultConfig returns a paper-faithful configuration.
func DefaultConfig() Config {
	p := msg.DefaultParams()
	p.BulkBytes = 256 << 10
	return Config{Msg: p, EagerLimit: 2048}
}

// World is the set of ranks (one per cluster node) and their N*(N-1)
// unidirectional channels.
type World struct {
	cfg   Config
	n     int
	comms []*Comm

	// Process-failure state (ULFM-style). failed collects ranks declared
	// dead — by a reliable sender exhausting its retransmit budget or by
	// an explicit Fail. group is the communicator the collectives run
	// over: all ranks at first, survivors after each Shrink. Failure
	// detection is continuous; shrinking is an explicit, application-
	// driven act, exactly as in MPI_Comm_shrink.
	failed  map[int]bool
	group   []int
	deadCBs []func(rank int)

	// trees[n] is the binomial tree over n group positions, built on
	// first use. Positions are root-relative, so one tree serves every
	// root. Ranks on different partitions share it, hence the lock.
	treeMu sync.Mutex
	trees  [][]treeNode
}

// NewWorld opens channels between every pair of nodes and starts the
// receive pumps.
func NewWorld(os *kernel.OS, cfg Config) (*World, error) {
	if cfg.EagerLimit == 0 {
		cfg.EagerLimit = 2048
	}
	if cfg.Msg.RingBytes == 0 {
		cfg.Msg = msg.DefaultParams()
	}
	if cfg.Msg.BulkBytes == 0 {
		cfg.Msg.BulkBytes = 256 << 10
	}
	if cfg.EagerLimit > cfg.Msg.MaxMessage()-envelopeHeader {
		return nil, fmt.Errorf("mpi: eager limit %d exceeds ring message capacity %d",
			cfg.EagerLimit, cfg.Msg.MaxMessage()-envelopeHeader)
	}
	cl := os.Cluster()
	n := cl.N()
	w := &World{cfg: cfg, n: n, failed: make(map[int]bool)}
	for i := 0; i < n; i++ {
		w.group = append(w.group, i)
	}
	// Each rank's communicator timestamps and traces on its own node's
	// engine and shard, so rank callbacks stay partition-local on
	// parallel clusters.
	for rank := 0; rank < n; rank++ {
		w.comms = append(w.comms, newComm(w, rank, cl.EngineFor(rank), cl.TracerFor(rank)))
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			s, r, err := msg.Open(os, src, dst, cfg.Msg)
			if err != nil {
				return nil, fmt.Errorf("mpi: channel %d->%d: %w", src, dst, err)
			}
			w.comms[src].senders[dst] = s
			w.comms[dst].receivers[src] = r
		}
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// Metrics returns the world's per-rank series, Key.Node = rank:
// mpi.barrier_enter and mpi.barrier_exit (their difference is the
// ranks inside a barrier) and mpi.rendezvous_start. It reads atomics,
// so it is safe while the simulation runs.
func (w *World) Metrics() trace.Snapshot {
	s := trace.NewSnapshot()
	for _, c := range w.comms {
		put := func(name string, v uint64) {
			if v != 0 {
				s.Counters[trace.Key{Name: name, Node: c.rank}] = v
			}
		}
		put("mpi.barrier_enter", c.barrierEnters.Load())
		put("mpi.barrier_exit", c.barrierExits.Load())
		put("mpi.rendezvous_start", c.rndvStarts.Load())
	}
	return s
}

// Rank returns rank i's communicator.
func (w *World) Rank(i int) *Comm { return w.comms[i] }

// ---- process-failure handling (ULFM-style) ------------------------------

// OnPeerDead registers cb to run (on the simulation goroutine) the
// first time each rank is declared failed — when a reliable channel to
// it exhausts its retransmit budget, or when Fail names it. The fabric
// is write-only, so only senders ever detect a dead peer; ranks that
// merely receive from it learn of the failure through this callback (in
// a real deployment, through the surviving ranks' agreement protocol).
func (w *World) OnPeerDead(cb func(rank int)) {
	w.deadCBs = append(w.deadCBs, cb)
}

// Fail declares rank failed, as a failure detector or the application
// would. Idempotent; triggers OnPeerDead callbacks on first use.
func (w *World) Fail(rank int) { w.noteFault(rank) }

// noteFault latches one rank's failure and notifies.
func (w *World) noteFault(rank int) {
	if rank < 0 || rank >= w.n || w.failed[rank] {
		return
	}
	w.failed[rank] = true
	for _, cb := range w.deadCBs {
		cb(rank)
	}
}

// Alive reports whether rank has not been declared failed.
func (w *World) Alive(rank int) bool { return !w.failed[rank] }

// FailedRanks returns the ranks declared failed so far, ascending.
func (w *World) FailedRanks() []int {
	var out []int
	for r := 0; r < w.n; r++ {
		if w.failed[r] {
			out = append(out, r)
		}
	}
	return out
}

// Group returns the current communicator group: the global ranks the
// collectives run over, ascending.
func (w *World) Group() []int { return append([]int(nil), w.group...) }

// Shrink rebuilds the communicator over the surviving ranks and returns
// the new group. Like MPI_Comm_shrink this is explicit: the application
// decides when to cut the failed ranks out, and every surviving rank
// must make the same decision before its next collective (in the
// simulation all ranks share the World, so one call suffices).
// Collectives invoked by a rank outside the group fail immediately;
// collectives over the shrunk group complete among survivors.
func (w *World) Shrink() []int {
	w.group = w.group[:0]
	for r := 0; r < w.n; r++ {
		if !w.failed[r] {
			w.group = append(w.group, r)
		}
	}
	return w.Group()
}

// ---- envelope wire format ----------------------------------------------

// envelope kinds.
const (
	kindEager   = 1
	kindRndv    = 2 // rendezvous notify: payload = bulk offset + length
	kindRndvAck = 3 // rendezvous buffer released
)

// envelopeHeader is kind(1) + pad(3) + tag(4).
const envelopeHeader = 8

type envelope struct {
	kind byte
	tag  int32
	data []byte // eager payload, or rndv (off,len) encoding
}

func encodeEnvelope(e envelope) []byte {
	buf := appendEnvelopeHeader(make([]byte, 0, envelopeHeader+len(e.data)), e.kind, e.tag)
	return append(buf, e.data...)
}

// appendEnvelopeHeader appends an envelope header to b.
func appendEnvelopeHeader(b []byte, kind byte, tag int32) []byte {
	b = append(b, kind, 0, 0, 0)
	return binary.LittleEndian.AppendUint32(b, uint32(tag))
}

func decodeEnvelope(b []byte) (envelope, error) {
	if len(b) < envelopeHeader {
		return envelope{}, fmt.Errorf("mpi: short envelope (%d bytes)", len(b))
	}
	return envelope{
		kind: b[0],
		tag:  int32(binary.LittleEndian.Uint32(b[4:8])),
		data: b[envelopeHeader:],
	}, nil
}

func encodeRndv(off uint64, length int) []byte {
	buf := make([]byte, 12)
	binary.LittleEndian.PutUint64(buf[0:8], off)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(length))
	return buf
}

func decodeRndv(b []byte) (uint64, int, error) {
	if len(b) < 12 {
		return 0, 0, fmt.Errorf("mpi: short rendezvous descriptor")
	}
	return binary.LittleEndian.Uint64(b[0:8]), int(binary.LittleEndian.Uint32(b[8:12])), nil
}

// Float64s encodes a float64 vector for reduction payloads.
func Float64s(v []float64) []byte {
	return appendFloat64s(make([]byte, 0, 8*len(v)), v)
}

// appendFloat64s appends v's little-endian encoding to b.
func appendFloat64s(b []byte, v []float64) []byte {
	for _, f := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// ToFloat64s decodes a reduction payload.
func ToFloat64s(b []byte) ([]float64, error) {
	return readFloat64s(nil, b)
}

// readFloat64s decodes b into dst's backing array, grown as needed.
func readFloat64s(dst []float64, b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("mpi: float payload %d bytes not a multiple of 8", len(b))
	}
	n := len(b) / 8
	if dst == nil || cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return dst, nil
}
