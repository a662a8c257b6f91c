// Package serve turns a booted TCCluster into a replicated, shard-
// routed key-value/query service — the million-user serving scenario
// the ROADMAP's north star asks for, running entirely over the paper's
// write-only host-interface fabric.
//
// Every node plays both roles: a server owning a deterministic set of
// shards (consistent hashing over a virtual-point ring, ReplicaN
// replicas per shard), and a client population generating an open-loop
// request stream (deterministic exponential arrivals, token-bucket
// admission control). Requests and responses are framed over one msg
// channel per ordered node pair — remote posted stores into 16 KB
// rings, doorbell-parked receivers — and a key that hashes to a shard
// on the client's own node is served through a local fast path that
// never touches the fabric.
//
// Failure handling is timeout-driven, because the fabric gives nothing
// else: a posted store to a crashed node master-aborts silently, so the
// only crash signal a client gets is response silence. Each client arms
// a per-request timeout; after DeadAfter consecutive timeouts against
// one server it marks that server dead in its local view and routes the
// shard's traffic to the surviving replicas. A NodeCrash therefore
// shows up as a goodput dip exactly one detection window wide, then
// recovery on the replicas — the SLO-impact experiment that
// scenarios/serve-chain16-crash.json runs under tccrun -check.
//
// Determinism: all mutable state is node-local and touched only by that
// node's engine events (arrivals, timeouts and routing on the client's
// engine; service and replication on the server's), so serial and
// WithParallel runs produce bit-identical reports. Counters and latency
// histograms use single-writer atomics (the prof.Hist contract), which
// also makes mid-run snapshots from the monitor's HTTP goroutine safe.
package serve

import (
	"fmt"

	"repro/internal/errs"
	"repro/internal/kernel"
	"repro/internal/msg"
	"repro/internal/sim"
)

// Policy selects how a client spreads read traffic over a shard's
// replicas. Writes always go to the first alive replica in placement
// order (the primary, or its successor after a crash).
type Policy string

const (
	// PolicyRoundRobin rotates reads across the shard's alive replicas.
	PolicyRoundRobin Policy = "round-robin"
	// PolicyLeastLoaded picks the alive replica with the fewest
	// requests outstanding from this client (lowest node id on ties).
	PolicyLeastLoaded Policy = "least-loaded"
	// PolicyAffinity always reads the first alive replica in placement
	// order: maximal cache affinity, failover only on death.
	PolicyAffinity Policy = "affinity"
)

func parsePolicy(p Policy) error {
	switch p {
	case PolicyRoundRobin, PolicyLeastLoaded, PolicyAffinity:
		return nil
	}
	return fmt.Errorf("serve: unknown routing policy %q: %w", p, errs.ErrBadConfig)
}

// Config shapes one serving deployment. Zero fields take the defaults
// documented per field (DefaultConfig spells them out).
type Config struct {
	// Shards is the number of key shards hashed over the ring
	// (default 64).
	Shards int
	// ReplicaN is how many nodes hold each shard (default 2, clamped
	// by New to the node count).
	ReplicaN int
	// Keyspace is the number of distinct keys clients draw from
	// (default 1<<20).
	Keyspace uint64
	// ValueBytes is the value payload size carried by writes and read
	// responses (default 128).
	ValueBytes int
	// ReadFraction is the probability a request is a read
	// (default 0.9).
	ReadFraction float64
	// RequestsPerNode is each node's open-loop arrival budget
	// (default 1000).
	RequestsPerNode int
	// MeanInterarrival is the mean of the exponential arrival process
	// per node (default 2 us).
	MeanInterarrival sim.Time
	// Policy is the read routing policy (default round-robin).
	Policy Policy
	// SLO is the latency bound a completion must meet to count toward
	// goodput (default 25 us).
	SLO sim.Time
	// Timeout declares a request lost — and counts a strike against
	// its server — when no response arrived (default 75 us).
	Timeout sim.Time
	// DeadAfter is how many consecutive timeouts against one server
	// make a client mark it dead (default 3).
	DeadAfter int
	// BucketBurst is the token-bucket depth of the per-node admission
	// controller (default 64).
	BucketBurst int
	// BucketRate is the bucket refill rate in requests per second of
	// virtual time (default 1e6). Negative disables admission control.
	BucketRate float64
	// Window is the goodput accounting window width (default 100 us).
	Window sim.Time
	// ServiceTime is the server-side work per request (default 150 ns).
	ServiceTime sim.Time
	// LocalDelay is the round-trip cost of the node-local fast path
	// (default 400 ns).
	LocalDelay sim.Time
	// RingBytes sizes each channel's receive ring (default 16 KB; the
	// paper's 4 KB rings stall senders under serving load).
	RingBytes uint64
	// Seed perturbs every client's arrival and key streams.
	Seed uint64
}

// DefaultConfig returns the serving defaults.
func DefaultConfig() Config {
	return Config{
		Shards:           64,
		ReplicaN:         2,
		Keyspace:         1 << 20,
		ValueBytes:       128,
		ReadFraction:     0.9,
		RequestsPerNode:  1000,
		MeanInterarrival: 2 * sim.Microsecond,
		Policy:           PolicyRoundRobin,
		SLO:              25 * sim.Microsecond,
		Timeout:          75 * sim.Microsecond,
		DeadAfter:        3,
		BucketBurst:      64,
		BucketRate:       1e6,
		Window:           100 * sim.Microsecond,
		ServiceTime:      150 * sim.Nanosecond,
		LocalDelay:       400 * sim.Nanosecond,
		RingBytes:        16384,
	}
}

// Validate fills zero fields with defaults and rejects a config that
// cannot run on an n-node deployment. New calls it; it is exported so
// spec layers can pre-check a lowered config without booting anything.
func (c *Config) Validate(nodes int) error { return c.validate(nodes) }

// validate fills zero fields with defaults and rejects what cannot run.
func (c *Config) validate(nodes int) error {
	d := DefaultConfig()
	if c.Shards == 0 {
		c.Shards = d.Shards
	}
	if c.ReplicaN == 0 {
		c.ReplicaN = d.ReplicaN
	}
	if c.Keyspace == 0 {
		c.Keyspace = d.Keyspace
	}
	if c.ValueBytes == 0 {
		c.ValueBytes = d.ValueBytes
	}
	if c.ReadFraction == 0 {
		c.ReadFraction = d.ReadFraction
	}
	if c.RequestsPerNode == 0 {
		c.RequestsPerNode = d.RequestsPerNode
	}
	if c.MeanInterarrival == 0 {
		c.MeanInterarrival = d.MeanInterarrival
	}
	if c.Policy == "" {
		c.Policy = d.Policy
	}
	if c.SLO == 0 {
		c.SLO = d.SLO
	}
	if c.Timeout == 0 {
		c.Timeout = d.Timeout
	}
	if c.DeadAfter == 0 {
		c.DeadAfter = d.DeadAfter
	}
	if c.BucketBurst == 0 {
		c.BucketBurst = d.BucketBurst
	}
	if c.BucketRate == 0 {
		c.BucketRate = d.BucketRate
	}
	if c.Window == 0 {
		c.Window = d.Window
	}
	if c.ServiceTime == 0 {
		c.ServiceTime = d.ServiceTime
	}
	if c.LocalDelay == 0 {
		c.LocalDelay = d.LocalDelay
	}
	if c.RingBytes == 0 {
		c.RingBytes = d.RingBytes
	}
	if err := parsePolicy(c.Policy); err != nil {
		return err
	}
	if nodes < 2 {
		return fmt.Errorf("serve: need at least 2 nodes, got %d: %w", nodes, errs.ErrBadConfig)
	}
	if c.ReplicaN < 1 {
		return fmt.Errorf("serve: replica count %d < 1: %w", c.ReplicaN, errs.ErrBadConfig)
	}
	if c.ReplicaN > nodes {
		c.ReplicaN = nodes
	}
	if c.Shards < 1 {
		return fmt.Errorf("serve: shard count %d < 1: %w", c.Shards, errs.ErrBadConfig)
	}
	if c.ValueBytes < 8 || uint64(hdrBytes+c.ValueBytes) > c.RingBytes/4 {
		return fmt.Errorf("serve: value size %d outside 8..ring/4 (%d): %w",
			c.ValueBytes, c.RingBytes/4, errs.ErrBadConfig)
	}
	if c.ReadFraction < 0 || c.ReadFraction > 1 {
		return fmt.Errorf("serve: read fraction %v outside [0,1]: %w", c.ReadFraction, errs.ErrBadConfig)
	}
	if c.MeanInterarrival < 0 || c.SLO < 0 || c.Timeout < 0 || c.Window <= 0 {
		return fmt.Errorf("serve: negative timing parameter: %w", errs.ErrBadConfig)
	}
	if c.Timeout < c.SLO {
		return fmt.Errorf("serve: timeout %v below SLO %v: %w", c.Timeout, c.SLO, errs.ErrBadConfig)
	}
	return nil
}

// Service is one serving deployment over a booted cluster: the channel
// mesh, every node's server and client state, and the placement ring.
type Service struct {
	cfg   Config
	ring  *hashRing
	nodes []*nodeState
}

// New builds a service over every node of the cluster: a full mesh of
// msg channels (one per ordered pair, multiplexing requests, responses
// and replication), the consistent-hash placement, and per-node client
// and server state. Nothing runs until Start.
func New(os *kernel.OS, cfg Config) (*Service, error) {
	cl := os.Cluster()
	n := cl.N()
	if err := cfg.validate(n); err != nil {
		return nil, err
	}
	s := &Service{cfg: cfg, ring: newHashRing(n, cfg.Shards, cfg.ReplicaN, cfg.Seed)}

	par := msg.DefaultParams()
	par.RingBytes = cfg.RingBytes
	par.Doorbell = true

	s.nodes = make([]*nodeState, n)
	for i := 0; i < n; i++ {
		s.nodes[i] = newNodeState(s, cl, i, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			tx, rx, err := msg.Open(os, i, j, par)
			if err != nil {
				return nil, fmt.Errorf("serve: channel %d->%d: %w", i, j, err)
			}
			s.nodes[i].send[j] = tx
			s.nodes[j].recv[i] = rx
		}
	}
	return s, nil
}

// Config returns the resolved configuration (defaults filled in).
func (s *Service) Config() Config { return s.cfg }

// Placement returns shard sh's replica set in placement order (the
// first entry is the primary).
func (s *Service) Placement(sh int) []int { return s.ring.replicas[sh] }

// Start arms every server's receive loops and schedules every client's
// first arrival. The caller then drives the cluster (Run/RunFor).
func (s *Service) Start() {
	for _, ns := range s.nodes {
		ns.startServer()
	}
	for _, ns := range s.nodes {
		ns.startClient()
	}
}

// Stop halts every receive loop (parked doorbell receivers are failed
// immediately). Call after the run has drained, before a final Run to
// retire the stop events.
func (s *Service) Stop() {
	for _, ns := range s.nodes {
		for _, r := range ns.recv {
			if r != nil {
				r.Stop()
			}
		}
	}
}
