// Cross-executor determinism suite: every example topology runs on the
// ladder queue, on the legacy container/heap queue, and on the parallel
// partitioned executor — and all must fire the same number of events,
// land on the same virtual time, and leave identical per-link counters.
// This is the contract that makes both the ladder queue and the
// conservative parallel engine drop-in replacements: the serial queues
// preserve (time, seq) ordering exactly, and the parallel executor's
// windowed barrier plus (time, stamp, priority) arbitration keys
// reproduce the serial schedule to the picosecond.
//
// Workload completion counters are atomics because the parallel runs
// invoke completion callbacks from partition worker goroutines.
package tccluster_test

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	tccluster "repro"
	"repro/internal/ht"
)

// queueFingerprint is everything a workload run must reproduce exactly
// under both event queues.
type queueFingerprint struct {
	fired uint64
	now   tccluster.Time
	links []ht.PortStats // A then B stats for each external link
}

func fingerprint(c *tccluster.Cluster) queueFingerprint {
	fp := queueFingerprint{fired: c.EventsFired(), now: c.Now()}
	for _, l := range c.ExternalLinks() {
		fp.links = append(fp.links, l.A().Stats(), l.B().Stats())
	}
	return fp
}

// quickstartRun mirrors examples/quickstart: a two-node chain passing a
// few messages each way through the message library.
func quickstartRun(t *testing.T, opts ...tccluster.Option) queueFingerprint {
	t.Helper()
	topo, err := tccluster.Chain(2)
	mustOK(t, err)
	c, err := tccluster.New(topo, tccluster.DefaultConfig(), opts...)
	mustOK(t, err)
	s, r, err := c.OpenChannel(0, 1, tccluster.DefaultMsgParams())
	mustOK(t, err)
	var got atomic.Int64
	var serve func()
	serve = func() {
		r.Recv(func(d []byte, err error) {
			if err != nil {
				return
			}
			got.Add(1)
			serve()
		})
	}
	serve()
	for i := 0; i < 5; i++ {
		s.Send([]byte(fmt.Sprintf("msg %d", i)), func(err error) { mustOK(t, err) })
	}
	c.RunFor(tccluster.Millisecond)
	r.Stop()
	c.Run()
	if got.Load() != 5 {
		t.Fatalf("quickstart: received %d of 5 messages", got.Load())
	}
	return fingerprint(c)
}

// doorbellPingpongRun is a 64 B ping-pong between chain neighbours in
// the opt-in doorbell receive mode (the one the serving stack uses):
// receivers park instead of spin-polling, so wakeups arrive as doorbell
// stores rather than poll hits — a different event schedule from the
// spin-mode scenarios above.
func doorbellPingpongRun(t *testing.T, opts ...tccluster.Option) queueFingerprint {
	t.Helper()
	const rounds = 50
	topo, err := tccluster.Chain(2)
	mustOK(t, err)
	c, err := tccluster.New(topo, tccluster.DefaultConfig(), opts...)
	mustOK(t, err)
	par := tccluster.DefaultMsgParams()
	par.Doorbell = true
	sAB, rAB, err := c.OpenChannel(0, 1, par)
	mustOK(t, err)
	sBA, rBA, err := c.OpenChannel(1, 0, par)
	mustOK(t, err)
	var serve func()
	serve = func() {
		rAB.Recv(func(d []byte, err error) {
			if err != nil {
				return
			}
			sBA.Send(d, func(err error) { mustOK(t, err) })
			serve()
		})
	}
	serve()
	var completed atomic.Int64
	var round func(i int)
	round = func(i int) {
		if i >= rounds {
			return
		}
		rBA.Recv(func(_ []byte, err error) {
			if err != nil {
				return
			}
			completed.Add(1)
			round(i + 1)
		})
		sAB.Send(make([]byte, 64), func(err error) { mustOK(t, err) })
	}
	round(0)
	c.RunFor(tccluster.Millisecond)
	rAB.Stop()
	rBA.Stop()
	c.Run()
	if completed.Load() != rounds {
		t.Fatalf("doorbell ping-pong: %d of %d rounds", completed.Load(), rounds)
	}
	return fingerprint(c)
}

// allreduceRun mirrors examples/allreduce: an MPI world on a chain
// reducing a vector from every rank.
func allreduceRun(t *testing.T, opts ...tccluster.Option) queueFingerprint {
	t.Helper()
	topo, err := tccluster.Chain(4)
	mustOK(t, err)
	c, err := tccluster.New(topo, tccluster.DefaultConfig(), opts...)
	mustOK(t, err)
	w, err := c.NewWorld(tccluster.DefaultMPIConfig())
	mustOK(t, err)
	var pending atomic.Int64
	pending.Store(4)
	for rk := 0; rk < 4; rk++ {
		vec := []float64{float64(rk), float64(rk * 2), float64(rk * 3)}
		w.Rank(rk).Allreduce(vec, tccluster.Sum, func(_ []float64, err error) {
			mustOK(t, err)
			pending.Add(-1)
		})
	}
	c.Run()
	if pending.Load() != 0 {
		t.Fatalf("allreduce: %d ranks incomplete", pending.Load())
	}
	return fingerprint(c)
}

// haloRun mirrors examples/heat2d and examples/cg: neighbor SendRecv
// halo exchanges plus a reduction, the stencil-solver communication
// pattern.
func haloRun(t *testing.T, opts ...tccluster.Option) queueFingerprint {
	t.Helper()
	topo, err := tccluster.Chain(3)
	mustOK(t, err)
	c, err := tccluster.New(topo, tccluster.DefaultConfig(), opts...)
	mustOK(t, err)
	w, err := c.NewWorld(tccluster.DefaultMPIConfig())
	mustOK(t, err)
	var exchanged atomic.Int64
	for rk := 0; rk < 3; rk++ {
		comm := w.Rank(rk)
		row := tccluster.Float64s([]float64{float64(rk), 1, 2, 3})
		if rk > 0 {
			comm.SendRecv(rk-1, 7, row, func(_ []byte, err error) {
				mustOK(t, err)
				exchanged.Add(1)
			})
		}
		if rk < 2 {
			comm.SendRecv(rk+1, 7, row, func(_ []byte, err error) {
				mustOK(t, err)
				exchanged.Add(1)
			})
		}
	}
	c.Run()
	if exchanged.Load() != 4 {
		t.Fatalf("halo: %d of 4 exchanges completed", exchanged.Load())
	}
	var pending atomic.Int64
	pending.Store(3)
	for rk := 0; rk < 3; rk++ {
		w.Rank(rk).Allreduce([]float64{float64(rk)}, tccluster.Sum, func(_ []float64, err error) {
			mustOK(t, err)
			pending.Add(-1)
		})
	}
	c.Run()
	if pending.Load() != 0 {
		t.Fatalf("halo: %d reductions incomplete", pending.Load())
	}
	return fingerprint(c)
}

// pgasRun mirrors examples/pgas: strict puts into neighbor segments
// with barriers, then gets.
func pgasRun(t *testing.T, opts ...tccluster.Option) queueFingerprint {
	t.Helper()
	const nodes = 4
	topo, err := tccluster.Chain(nodes)
	mustOK(t, err)
	c, err := tccluster.New(topo, tccluster.DefaultConfig(), opts...)
	mustOK(t, err)
	sp, err := c.NewSpace(tccluster.DefaultPGASConfig())
	mustOK(t, err)
	segBytes := sp.Size() / nodes
	var done atomic.Int64
	for n := 0; n < nodes; n++ {
		n := n
		dst := (n + 1) % nodes
		blk := make([]byte, 64)
		for i := range blk {
			blk[i] = byte(n*31 + i)
		}
		sp.PutStrict(n, uint64(dst)*segBytes+uint64(n)*64, blk, func(err error) {
			mustOK(t, err)
			sp.Barrier(n, func(err error) {
				mustOK(t, err)
				done.Add(1)
			})
		})
	}
	c.Run()
	if done.Load() != int64(nodes) {
		t.Fatalf("pgas: %d of %d put+barrier sequences completed", done.Load(), nodes)
	}
	var reads atomic.Int64
	for n := 0; n < nodes; n++ {
		sp.Get(n, uint64(n)*segBytes, 8, func(_ []byte, err error) {
			mustOK(t, err)
			reads.Add(1)
		})
	}
	c.Run()
	if reads.Load() != int64(nodes) {
		t.Fatalf("pgas: %d of %d local gets completed", reads.Load(), nodes)
	}
	return fingerprint(c)
}

// meshRun mirrors examples/cluster16: a 4x4 mesh with every node
// streaming posted stores into its right neighbor's DRAM.
func meshRun(t *testing.T, opts ...tccluster.Option) queueFingerprint {
	t.Helper()
	topo, err := tccluster.Mesh(4, 4)
	mustOK(t, err)
	cfg := tccluster.DefaultConfig()
	cfg.SocketsPerNode = 2 // interior mesh nodes need 4 external links
	c, err := tccluster.New(topo, cfg, opts...)
	mustOK(t, err)
	var stored atomic.Int64
	for i := 0; i < c.N(); i++ {
		dst := (i + 1) % c.N()
		base := c.Node(dst).MemBase() + 8<<20
		c.Node(i).Core().StoreBlock(base+uint64(i)*64, make([]byte, 64), func(err error) {
			mustOK(t, err)
			stored.Add(1)
		})
	}
	c.Run()
	if stored.Load() != int64(c.N()) {
		t.Fatalf("mesh: %d of %d stores retired", stored.Load(), c.N())
	}
	return fingerprint(c)
}

// lossyRun mirrors examples/failures' lossy-cable scenario: a seeded
// fault stream forcing CRC retries, the stochastic path that most
// easily diverges if event ordering shifts.
func lossyRun(t *testing.T, opts ...tccluster.Option) queueFingerprint {
	t.Helper()
	topo, err := tccluster.Chain(2)
	mustOK(t, err)
	cfg := tccluster.DefaultConfig()
	cfg.CableErrorRate = 0.2
	cfg.Seed = 7
	c, err := tccluster.New(topo, cfg, opts...)
	mustOK(t, err)
	base := c.Node(1).MemBase() + 8<<20
	var stored atomic.Int64
	var step func(i int)
	step = func(i int) {
		if i >= 50 {
			return
		}
		c.Node(0).Core().StoreBlock(base+uint64(i%8)*64, make([]byte, 64), func(err error) {
			mustOK(t, err)
			stored.Add(1)
			step(i + 1)
		})
	}
	step(0)
	c.Run()
	if stored.Load() != 50 {
		t.Fatalf("lossy: %d of 50 stores retired", stored.Load())
	}
	return fingerprint(c)
}

// faultRecoveryRun exercises the fault campaign and recovery stack
// under the determinism gate: a chain4 whose far link is cut and
// re-seated mid-transfer under a reliable channel (ack timeouts,
// go-back-N retransmission, retraining) while the near link runs
// degraded (seeded CRC retries) under a posted-store stream. Action
// cuts, retransmit timers and the stochastic retry path must all
// reproduce exactly on every executor.
func faultRecoveryRun(t *testing.T, opts ...tccluster.Option) queueFingerprint {
	t.Helper()
	topo, err := tccluster.Chain(4)
	mustOK(t, err)
	opts = append(opts, tccluster.WithFaults(
		tccluster.LinkDegrade(0, 100*tccluster.Microsecond, 2*tccluster.Millisecond, 0.3),
		tccluster.LinkDownFor(2, 2500*tccluster.Microsecond, 150*tccluster.Microsecond)))
	cfg := tccluster.DefaultConfig()
	cfg.Seed = 11
	c, err := tccluster.New(topo, cfg, opts...)
	mustOK(t, err)
	par := tccluster.DefaultMsgParams()
	par.Reliable = true
	par.AckTimeout = 20 * tccluster.Microsecond
	s, r, err := c.OpenChannel(2, 3, par)
	mustOK(t, err)
	var delivered atomic.Int64
	var serve func()
	serve = func() {
		r.Recv(func(_ []byte, err error) {
			if err != nil {
				return
			}
			delivered.Add(1)
			serve()
		})
	}
	serve()
	var acked atomic.Int64
	var send func(i int)
	send = func(i int) {
		if i >= 60 {
			return
		}
		s.Send(make([]byte, 64), func(err error) {
			mustOK(t, err)
			acked.Add(1)
			send(i + 1)
		})
	}
	send(0)
	// A posted-store stream across the degraded near link.
	base := c.Node(1).MemBase() + 8<<20
	var stored atomic.Int64
	var step func(i int)
	step = func(i int) {
		if i >= 80 {
			return
		}
		c.Node(0).Core().StoreBlock(base+uint64(i%8)*64, make([]byte, 64), func(err error) {
			mustOK(t, err)
			stored.Add(1)
			step(i + 1)
		})
	}
	step(0)
	c.RunFor(6 * tccluster.Millisecond)
	r.Stop()
	c.Run()
	if delivered.Load() != 60 || acked.Load() != 60 {
		t.Fatalf("fault-recovery: delivered %d acked %d of 60 messages", delivered.Load(), acked.Load())
	}
	if stored.Load() != 80 {
		t.Fatalf("fault-recovery: %d of 80 stores retired", stored.Load())
	}
	if s.Stats().Retransmits == 0 {
		t.Fatal("fault-recovery: outage produced no retransmissions")
	}
	return fingerprint(c)
}

// TestLadderMatchesLegacyOnAllExampleTopologies is the determinism
// gate: for each example-shaped workload, the ladder and heap queues
// must agree on event count, final virtual time, and every per-link
// counter.
func TestLadderMatchesLegacyOnAllExampleTopologies(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(*testing.T, ...tccluster.Option) queueFingerprint
	}{
		{"quickstart-chain2", quickstartRun},
		{"doorbell-pingpong-chain2", doorbellPingpongRun},
		{"allreduce-chain4", allreduceRun},
		{"halo-chain3", haloRun},
		{"pgas-chain4", pgasRun},
		{"cluster16-mesh4x4", meshRun},
		{"failures-lossy-chain2", lossyRun},
		{"fault-recovery-chain4", faultRecoveryRun},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			ladder := sc.run(t)
			heap := sc.run(t, tccluster.WithLegacyEventQueue())
			if ladder.fired != heap.fired {
				t.Errorf("event count diverged: ladder %d, heap %d", ladder.fired, heap.fired)
			}
			if ladder.now != heap.now {
				t.Errorf("final virtual time diverged: ladder %v, heap %v", ladder.now, heap.now)
			}
			if !reflect.DeepEqual(ladder.links, heap.links) {
				t.Errorf("per-link counters diverged:\nladder: %+v\nheap:   %+v", ladder.links, heap.links)
			}
		})
	}
}

// TestParallelMatchesSerialOnAllExampleTopologies is the parallel
// determinism gate: each example-shaped workload runs serially and
// partitioned at 2 and 4 workers, and every partitioning must reproduce
// the serial event count, final virtual time, and per-link counters
// exactly. Event order inside a window may differ between executors;
// anything observable here may not.
func TestParallelMatchesSerialOnAllExampleTopologies(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(*testing.T, ...tccluster.Option) queueFingerprint
	}{
		{"quickstart-chain2", quickstartRun},
		{"doorbell-pingpong-chain2", doorbellPingpongRun},
		{"allreduce-chain4", allreduceRun},
		{"halo-chain3", haloRun},
		{"pgas-chain4", pgasRun},
		{"cluster16-mesh4x4", meshRun},
		{"failures-lossy-chain2", lossyRun},
		{"fault-recovery-chain4", faultRecoveryRun},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			serial := sc.run(t)
			for _, workers := range []int{2, 4} {
				par := sc.run(t, tccluster.WithParallel(workers))
				if par.fired != serial.fired {
					t.Errorf("%d workers: event count diverged: serial %d, parallel %d",
						workers, serial.fired, par.fired)
				}
				if par.now != serial.now {
					t.Errorf("%d workers: final virtual time diverged: serial %v, parallel %v",
						workers, serial.now, par.now)
				}
				if !reflect.DeepEqual(par.links, serial.links) {
					t.Errorf("%d workers: per-link counters diverged:\nserial:   %+v\nparallel: %+v",
						workers, serial.links, par.links)
				}
			}
		})
	}
}

// torusRun is the 256-node fabric workload behind the torus gate: a
// short ring collective over row-major rank channels (cross-partition
// doorbells and ring polling under any cut) plus one remote store per
// node (the NB path). Sized to keep the gate under a few seconds while
// still crossing every partition boundary both ways.
func torusRun(t *testing.T, opts ...tccluster.Option) queueFingerprint {
	t.Helper()
	topo, err := tccluster.Torus(16, 16)
	mustOK(t, err)
	cfg := tccluster.DefaultConfig()
	cfg.SocketsPerNode = 2 // torus nodes need 4 external links
	c, err := tccluster.New(topo, cfg, opts...)
	mustOK(t, err)
	n := c.N()
	senders := make([]*tccluster.Sender, n)
	receivers := make([]*tccluster.Receiver, n)
	for i := 0; i < n; i++ {
		s, r, err := c.OpenChannel(i, (i+1)%n, tccluster.DefaultMsgParams())
		mustOK(t, err)
		senders[i] = s
		receivers[(i+1)%n] = r
	}
	const steps = 3
	var completed atomic.Int64
	for i := 0; i < n; i++ {
		buf := make([]byte, 64)
		buf[0] = byte(i)
		send, recv := senders[i], receivers[i]
		var step func(s int)
		step = func(s int) {
			if s >= steps {
				completed.Add(1)
				return
			}
			recv.Recv(func(d []byte, err error) {
				mustOK(t, err)
				for k := range buf {
					buf[k] += d[k]
				}
				step(s + 1)
			})
			send.Send(buf, func(error) {})
		}
		step(0)
	}
	var stored atomic.Int64
	for i := 0; i < n; i++ {
		dst := (i + 16) % n // the node one torus row down
		base := c.Node(dst).MemBase() + 8<<20
		c.Node(i).Core().StoreBlock(base+uint64(i)*64, make([]byte, 64), func(err error) {
			mustOK(t, err)
			stored.Add(1)
		})
	}
	c.Run()
	if completed.Load() != int64(n) {
		t.Fatalf("torus: %d of %d ring ranks completed", completed.Load(), n)
	}
	if stored.Load() != int64(n) {
		t.Fatalf("torus: %d of %d stores retired", stored.Load(), n)
	}
	return fingerprint(c)
}

// TestParallelMatchesSerialTorus16x16 is the 256-node determinism gate
// for the adaptive executor: the torus workload partitioned at 2, 4 and
// 8 workers — under both partitioners — must reproduce the serial event
// count, final virtual time, and per-link counters exactly.
func TestParallelMatchesSerialTorus16x16(t *testing.T) {
	serial := torusRun(t)
	for _, workers := range []int{2, 4, 8} {
		for _, part := range []struct {
			name string
			opts []tccluster.Option
		}{
			{"graph-cut", nil},
			{"supernode", []tccluster.Option{tccluster.WithPartitioner(tccluster.PartitionBySupernode())}},
		} {
			opts := append([]tccluster.Option{tccluster.WithParallel(workers)}, part.opts...)
			par := torusRun(t, opts...)
			if par.fired != serial.fired {
				t.Errorf("%d workers (%s): event count diverged: serial %d, parallel %d",
					workers, part.name, serial.fired, par.fired)
			}
			if par.now != serial.now {
				t.Errorf("%d workers (%s): final virtual time diverged: serial %v, parallel %v",
					workers, part.name, serial.now, par.now)
			}
			if !reflect.DeepEqual(par.links, serial.links) {
				t.Errorf("%d workers (%s): per-link counters diverged", workers, part.name)
			}
		}
	}
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
