package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	tccluster "repro"
)

// mode selects how one batch executes.
type mode struct {
	workers int  // 0 = the serial engine
	profile bool // WithProfile plus a sampled CPU profile
}

// workload is one benchmark input: a cluster shape and a closed amount
// of work (one batch), rebuilt from scratch for every batch so that
// every batch of a run simulates exactly the same thing.
type workload struct {
	name string
	why  string
	// batch is the work size of one batch in ops at scale 1.
	batch int
	// opName says what one op is.
	opName string
	// parallel: the workload also runs at 2 workers.
	parallel bool
	build    func(seed uint64, ops int, m mode) (*cell, error)
}

// cell is one built cluster with its workload opened on it, ready to run
// a batch. boot and open split its setup wall time. run drives the
// simulation (the timed part); result then reads and checks what it
// simulated.
type cell struct {
	c          *tccluster.Cluster
	boot, open time.Duration
	run        func()
	result     func() (outcome, error)
	// senders are the channels the benchmark opened itself, whose
	// flow-control stalls the ledger reads; serve and MPI keep theirs
	// inside their layer.
	senders []*tccluster.Sender
}

// outcome is what one batch simulated.
type outcome struct {
	ops       int // ops attempted
	failed    int // ops that timed out, were shed, unroutable or never completed
	virtualNS float64
	// outputs are the simulated results the fingerprint covers, exactly
	// formatted.
	outputs map[string]string
	// Serve-only detail for the per-layer ledger.
	serve *tccluster.ServeReport
}

var workloads = []*workload{
	{
		name:   "serve-chain16",
		why:    "KV serve on a 16-node chain: multi-hop forwarding, replicated writes, timeout timers; batch of 625 requests per node",
		batch:  625,
		opName: "request",
		build:  buildServe,
	},
	{
		name:   "pingpong-chain2",
		why:    "Fig. 7 shape: 64 B spin-polled ping-pong between neighbours, the read and poll path; batch of 25000 round trips",
		batch:  25_000,
		opName: "round trip",
		build:  buildPingpong,
	},
	{
		name:   "stream-chain2",
		why:    "Fig. 6 shape: posted 64 B stores into the neighbour's DRAM, the write path without msg or polling; batch of 300000 stores",
		batch:  300_000,
		opName: "store",
		build:  buildStream,
	},
	{
		name:   "allreduce-chain8",
		why:    "back-to-back MPI Allreduce of 64 doubles over 8 spin-polled ranks, the only mpi load; batch of 500 allreduces",
		batch:  500,
		opName: "allreduce",
		build:  buildAllreduce,
	},
	{
		name:     "ring-torus256",
		why:      "ring shift on a 16x16 torus, 2 sockets per node: largest heap and setup, the only 2-worker run; batch of 125 steps",
		batch:    125,
		opName:   "rank-step",
		parallel: true,
		build:    buildRing,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// boot builds and boots a cluster in the given mode and returns it with
// its wall-clock boot time.
func boot(topo *tccluster.Topology, cfg tccluster.Config, m mode) (*tccluster.Cluster, time.Duration, error) {
	var opts []tccluster.Option
	if m.workers > 0 {
		opts = append(opts, tccluster.WithParallel(m.workers))
	}
	if m.profile {
		opts = append(opts, tccluster.WithProfile())
	}
	t0 := time.Now()
	c, err := tccluster.New(topo, cfg, opts...)
	return c, time.Since(t0), err
}

// splitmix is the seeded generator behind every payload and input.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) bytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(s.next())
	}
	return b
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
func fmtU(v uint64) string  { return strconv.FormatUint(v, 10) }

// buildServe deploys the default serve config (keyspace 2^16) on a
// 16-node chain, ops requests per node.
func buildServe(seed uint64, ops int, m mode) (*cell, error) {
	topo, err := tccluster.Chain(16)
	if err != nil {
		return nil, err
	}
	c, bootT, err := boot(topo, tccluster.DefaultConfig(), m)
	if err != nil {
		return nil, err
	}
	cfg := tccluster.DefaultServeConfig()
	cfg.Keyspace = 1 << 16
	cfg.RequestsPerNode = ops
	cfg.Seed = seed
	t0 := time.Now()
	svc, err := c.NewService(cfg)
	if err != nil {
		return nil, err
	}
	open := time.Since(t0)
	start := c.Now()
	run := func() {
		svc.Start()
		c.Run()
		svc.Stop()
		c.Run()
	}
	result := func() (outcome, error) {
		r := svc.Report()
		if r.Requests != r.Completed+r.Timeouts+r.Shed+r.Unroutable {
			return outcome{}, fmt.Errorf("serve conservation broken: %d requests != %d completed + %d timeouts + %d shed + %d unroutable",
				r.Requests, r.Completed, r.Timeouts, r.Shed, r.Unroutable)
		}
		if r.Bad != 0 {
			return outcome{}, fmt.Errorf("serve: %d corrupt frames or responses", r.Bad)
		}
		return outcome{
			ops:       int(r.Requests),
			failed:    int(r.Timeouts + r.Shed + r.Unroutable),
			virtualNS: (c.Now() - start).Nanos(),
			outputs: map[string]string{
				"final_virtual_ns": fmtF(c.Now().Nanos()),
				"checksum":         fmtU(r.Checksum),
				"p50_ps":           fmtF(r.P50PS),
				"p99_ps":           fmtF(r.P99PS),
				"p999_ps":          fmtF(r.P999PS),
				"goodput_pct":      fmtF(r.GoodputPct),
			},
			serve: &r,
		}, nil
	}
	return &cell{c: c, boot: bootT, open: open, run: run, result: result}, nil
}

// buildPingpong opens one channel each way on the two-node prototype
// with the paper's default spin polling: node 1 echoes, node 0 sends the
// next 64 B ping when the echo arrives.
func buildPingpong(seed uint64, ops int, m mode) (*cell, error) {
	topo, err := tccluster.Chain(2)
	if err != nil {
		return nil, err
	}
	c, bootT, err := boot(topo, tccluster.DefaultConfig(), m)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	ping, pingRx, err := c.OpenChannel(0, 1, tccluster.DefaultMsgParams())
	if err != nil {
		return nil, err
	}
	pong, pongRx, err := c.OpenChannel(1, 0, tccluster.DefaultMsgParams())
	if err != nil {
		return nil, err
	}
	open := time.Since(t0)
	rng := splitmix(seed)
	payload := rng.bytes(64)
	start := c.Now()
	done, bad := 0, 0
	var rtt tccluster.Time
	run := func() {
		var echo func()
		echo = func() {
			pingRx.Recv(func(d []byte, err error) {
				if err != nil {
					return // stopped after the last round
				}
				pong.Send(d, func(error) {})
				echo()
			})
		}
		echo()
		var round func()
		round = func() {
			sent := c.Node(0).Now()
			pongRx.Recv(func(d []byte, err error) {
				if err != nil || !bytes.Equal(d, payload) {
					bad++
				}
				rtt += c.Node(0).Now() - sent
				done++
				if done == ops {
					pingRx.Stop()
					return
				}
				round()
			})
			ping.Send(payload, func(err error) {
				if err != nil {
					bad++
				}
			})
		}
		round()
		c.Run()
	}
	result := func() (outcome, error) {
		return outcome{
			ops:       ops,
			failed:    ops - done + bad,
			virtualNS: (c.Now() - start).Nanos(),
			outputs: map[string]string{
				"final_virtual_ns": fmtF(c.Now().Nanos()),
				"mean_half_rtt_ns": fmtF(rtt.Nanos() / float64(2*ops)),
			},
		}, nil
	}
	return &cell{c: c, boot: bootT, open: open, run: run, result: result, senders: []*tccluster.Sender{ping, pong}}, nil
}

// streamSlots is how many 64 B slots the stream rotates through; the
// final DRAM contents of each slot are checked.
const streamSlots = 8

// buildStream issues ops back-to-back posted 64 B block stores from node
// 0 into node 1's DRAM, then one Sfence — the weakly ordered Fig. 6 loop.
func buildStream(seed uint64, ops int, m mode) (*cell, error) {
	topo, err := tccluster.Chain(2)
	if err != nil {
		return nil, err
	}
	c, bootT, err := boot(topo, tccluster.DefaultConfig(), m)
	if err != nil {
		return nil, err
	}
	rng := splitmix(seed)
	blocks := make([][]byte, streamSlots)
	for i := range blocks {
		blocks[i] = rng.bytes(64)
	}
	const off = 8 << 20 // past the uncachable receive window
	src, dst := c.Node(0), c.Node(1)
	start := c.Now()
	var finish tccluster.Time
	done, bad := 0, 0
	run := func() {
		core := src.Core()
		base := dst.MemBase() + off
		var store func(i int)
		store = func(i int) {
			if i == ops {
				core.Sfence(func() { finish = src.Now() })
				return
			}
			core.StoreBlock(base+uint64(i%streamSlots)*64, blocks[i%streamSlots], func(err error) {
				if err != nil {
					bad++
					return
				}
				done++
				store(i + 1)
			})
		}
		store(0)
		c.Run()
	}
	result := func() (outcome, error) {
		for k, want := range blocks {
			got, err := dst.PeekMem(off+uint64(k)*64, 64)
			if err != nil {
				return outcome{}, err
			}
			if !bytes.Equal(got, want) {
				return outcome{}, fmt.Errorf("stream: slot %d holds the wrong bytes", k)
			}
		}
		if finish <= start {
			return outcome{}, fmt.Errorf("stream: the final Sfence never completed")
		}
		mbs := float64(64*done) / float64(finish-start) * 1e12 / 1e6
		return outcome{
			ops:       ops,
			failed:    ops - done + bad,
			virtualNS: (c.Now() - start).Nanos(),
			outputs: map[string]string{
				"final_virtual_ns": fmtF(c.Now().Nanos()),
				"mb_per_s":         fmtF(mbs),
			},
		}, nil
	}
	return &cell{c: c, boot: bootT, run: run, result: result}, nil
}

// allreduceLen is the vector length of every allreduce.
const allreduceLen = 64

// buildAllreduce runs ops back-to-back Allreduce(Sum) calls of 64
// doubles over an 8-rank world. Inputs are small integers, so every sum
// is exact whatever the reduction order, and each result is checked.
func buildAllreduce(seed uint64, ops int, m mode) (*cell, error) {
	topo, err := tccluster.Chain(8)
	if err != nil {
		return nil, err
	}
	c, bootT, err := boot(topo, tccluster.DefaultConfig(), m)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	world, err := c.NewWorld(tccluster.DefaultMPIConfig())
	if err != nil {
		return nil, err
	}
	open := time.Since(t0)
	n := world.Size()
	rng := splitmix(seed)
	inputs := make([][]float64, n)
	want := make([]float64, allreduceLen)
	for r := range inputs {
		inputs[r] = make([]float64, allreduceLen)
		for k := range inputs[r] {
			v := float64(rng.next() % 1024)
			inputs[r][k] = v
			want[k] += v
		}
	}
	start := c.Now()
	done := make([]int, n) // per rank: written only on its partition
	bad := make([]int, n)
	run := func() {
		for r := 0; r < n; r++ {
			comm := world.Rank(r)
			var call func()
			call = func() {
				comm.Allreduce(inputs[r], tccluster.Sum, func(got []float64, err error) {
					if err != nil || !slices.Equal(got, want) {
						bad[r]++
					}
					done[r]++
					if done[r] < ops {
						call()
					}
				})
			}
			call()
		}
		c.Run()
	}
	result := func() (outcome, error) {
		failed := 0
		for r := range done {
			if f := ops - done[r] + bad[r]; f > failed {
				failed = f
			}
		}
		return outcome{
			ops:       ops,
			failed:    failed,
			virtualNS: (c.Now() - start).Nanos(),
			outputs: map[string]string{
				"final_virtual_ns":  fmtF(c.Now().Nanos()),
				"result_fnv":        fmtU(fnvFloats(want)),
				"virtual_us_per_op": fmtF((c.Now() - start).Nanos() / 1e3 / float64(ops)),
			},
		}, nil
	}
	return &cell{c: c, boot: bootT, open: open, run: run, result: result}, nil
}

// fnvFloats hashes a vector's IEEE-754 bits (FNV-1a, 64 bit).
func fnvFloats(v []float64) uint64 {
	h := fnv.New64a()
	for _, x := range v {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
	}
	return h.Sum64()
}

// buildRing opens one channel from every rank of a 16x16 torus to its
// successor in row-major order. Each step every rank receives its
// predecessor's 64 B block, adds it bytewise into its own, and sends its
// block on. Completion counters are atomics: rank callbacks run on the
// partition goroutines of a parallel cluster.
func buildRing(seed uint64, steps int, m mode) (*cell, error) {
	topo, err := tccluster.Torus(16, 16)
	if err != nil {
		return nil, err
	}
	cfg := tccluster.DefaultConfig()
	cfg.SocketsPerNode = 2 // four external ports per node
	c, bootT, err := boot(topo, cfg, m)
	if err != nil {
		return nil, err
	}
	n := c.N()
	t0 := time.Now()
	senders := make([]*tccluster.Sender, n)
	receivers := make([]*tccluster.Receiver, n)
	for i := 0; i < n; i++ {
		s, r, err := c.OpenChannel(i, (i+1)%n, tccluster.DefaultMsgParams())
		if err != nil {
			return nil, err
		}
		senders[i] = s
		receivers[(i+1)%n] = r
	}
	open := time.Since(t0)
	rng := splitmix(seed)
	init := make([][]byte, n)
	for i := range init {
		init[i] = rng.bytes(64)
	}
	start := c.Now()
	bufs := make([][]byte, n)
	var completed, bad atomic.Int64
	run := func() {
		for i := 0; i < n; i++ {
			send, recv := senders[i], receivers[i]
			buf := append([]byte(nil), init[i]...)
			bufs[i] = buf
			var step func(s int)
			step = func(s int) {
				if s == steps {
					completed.Add(1)
					return
				}
				recv.Recv(func(d []byte, err error) {
					if err != nil {
						bad.Add(1)
						return
					}
					for k := range buf {
						buf[k] += d[k]
					}
					step(s + 1)
				})
				send.Send(append([]byte(nil), buf...), func(err error) {
					if err != nil {
						bad.Add(1)
					}
				})
			}
			step(0)
		}
		c.Run()
	}
	result := func() (outcome, error) {
		got := blockSum(bufs)
		if want := blockSum(ringReference(init, steps)); got != want {
			return outcome{}, fmt.Errorf("ring: block checksum %#x, host reference %#x", got, want)
		}
		ops := n * steps
		return outcome{
			ops:       ops,
			failed:    int(bad.Load()) + (n-int(completed.Load()))*steps,
			virtualNS: (c.Now() - start).Nanos(),
			outputs: map[string]string{
				"final_virtual_ns": fmtF(c.Now().Nanos()),
				"block_checksum":   fmtU(got),
			},
		}, nil
	}
	return &cell{c: c, boot: bootT, open: open, run: run, result: result, senders: senders}, nil
}

// ringReference computes the ring shift's final blocks on the host:
// after each step rank i holds its block plus its predecessor's.
func ringReference(init [][]byte, steps int) [][]byte {
	n := len(init)
	cur := make([][]byte, n)
	for i := range init {
		cur[i] = append([]byte(nil), init[i]...)
	}
	next := make([][]byte, n)
	for i := range next {
		next[i] = make([]byte, len(init[i]))
	}
	for s := 0; s < steps; s++ {
		for i := 0; i < n; i++ {
			prev := cur[(i+n-1)%n]
			for k := range cur[i] {
				next[i][k] = cur[i][k] + prev[k]
			}
		}
		cur, next = next, cur
	}
	return cur
}

// blockSum is an FNV-1a hash over every rank's block in rank order.
func blockSum(bufs [][]byte) uint64 {
	h := fnv.New64a()
	for _, b := range bufs {
		h.Write(b)
	}
	return h.Sum64()
}
