// Parallel benchmark: the same full-stack workloads on one cluster
// executed serially and with the partitioned conservative engine at
// increasing worker counts. Emits BENCH_parallel.json with wall-clock
// ratios against the serial run plus run metadata — the speedup numbers
// are only meaningful relative to the recorded GOMAXPROCS/NumCPU, since
// a 1-CPU container cannot show parallel gains no matter how well the
// partitioning works. The benchmark also enforces the determinism
// contract: every worker count must land on exactly the serial run's
// final virtual time and event count.
//
// With -baseline it additionally gates speedup_vs_serial against a
// committed report: any workload/worker-count pair whose speedup drops
// more than 15% below the baseline fails the run, unless the current
// machine has fewer CPUs than the baseline machine had (fewer cores
// cannot reproduce multi-core speedups, so the gate would only measure
// the runner, not the code).
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	tccluster "repro"
	"repro/internal/stats"
)

// parallelBaselineTolerance is how far speedup_vs_serial may fall below
// the committed baseline before the gate fails.
const parallelBaselineTolerance = 0.15

type parallelRun struct {
	Workers         int     `json:"workers"` // 0 = serial reference
	Partitions      int     `json:"partitions"`
	Events          uint64  `json:"events"`
	WallSeconds     float64 `json:"wall_seconds"`
	EventsPerSec    float64 `json:"events_per_sec"`
	FinalVirtualNs  float64 `json:"final_virtual_ns"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial"` // serial wall / this wall
}

type parallelWorkload struct {
	Name        string        `json:"name"`
	Nodes       int           `json:"nodes"`
	LookaheadPs int64         `json:"lookahead_ps"`
	Runs        []parallelRun `json:"runs"`
}

type parallelReport struct {
	Meta      stats.BenchMeta    `json:"meta"`
	Workloads []parallelWorkload `json:"workloads"`
}

// parallelCluster boots an n-node chain, serial when workers == 0.
func parallelCluster(n, workers int) *tccluster.Cluster {
	topo, err := tccluster.Chain(n)
	check(err)
	c, err := tccluster.New(topo, tccluster.DefaultConfig(), parallelOpts(workers)...)
	check(err)
	return c
}

// torusCluster boots a w×h torus. Torus nodes have four external
// ports, so supernodes need two sockets.
func torusCluster(w, h, workers int) *tccluster.Cluster {
	topo, err := tccluster.Torus(w, h)
	check(err)
	cfg := tccluster.DefaultConfig()
	cfg.SocketsPerNode = 2
	c, err := tccluster.New(topo, cfg, parallelOpts(workers)...)
	check(err)
	return c
}

func parallelOpts(workers int) []tccluster.Option {
	if workers > 0 {
		return []tccluster.Option{tccluster.WithParallel(workers)}
	}
	return nil
}

// runPingpongPairs drives one concurrent 64-byte ping-pong per listed
// node pair and returns the measured run.
func runPingpongPairs(c *tccluster.Cluster, workers, rounds int, pairList [][2]int) parallelRun {
	type pair struct {
		done int
	}
	pairs := make([]*pair, len(pairList))
	start := func(a, b int, p *pair) {
		sAB, rAB, err := c.OpenChannel(a, b, tccluster.DefaultMsgParams())
		check(err)
		sBA, rBA, err := c.OpenChannel(b, a, tccluster.DefaultMsgParams())
		check(err)
		var serve func()
		serve = func() {
			rAB.Recv(func(d []byte, err error) {
				if err != nil {
					return
				}
				sBA.Send(d, func(error) {})
				serve()
			})
		}
		serve()
		var round func(i int)
		round = func(i int) {
			if i >= rounds {
				rAB.Stop()
				return
			}
			rBA.Recv(func(_ []byte, err error) {
				if err != nil {
					return
				}
				p.done++
				round(i + 1)
			})
			sAB.Send(make([]byte, 64), func(error) {})
		}
		round(0)
	}
	for i, ab := range pairList {
		pairs[i] = &pair{}
		start(ab[0], ab[1], pairs[i])
	}
	startFired := c.EventsFired()
	t0 := time.Now()
	c.Run()
	wall := time.Since(t0).Seconds()
	for i, p := range pairs {
		if p.done != rounds {
			check(fmt.Errorf("parallel bench: pair %d completed %d of %d rounds", i, p.done, rounds))
		}
	}
	return finishParallelRun(c, workers, wall, c.EventsFired()-startFired)
}

// parallelPingpong is the Fig. 7 shape spread over the whole cluster:
// one 64-byte ping-pong per adjacent node pair, all pairs concurrent, so
// every partition owns live traffic and the cross-cut links carry the
// pairs the partition boundary splits.
func parallelPingpong(n, workers, rounds int) parallelRun {
	c := parallelCluster(n, workers)
	pairList := make([][2]int, 0, n/2)
	for i := 0; i+1 < n; i += 2 {
		pairList = append(pairList, [2]int{i, i + 1})
	}
	return runPingpongPairs(c, workers, rounds, pairList)
}

// parallelPingpongMesh pairs torus nodes with their right-hand row
// neighbor: w*h/2 concurrent ping-pongs whose traffic stays almost
// entirely partition-local under a row-contiguous cut — the shape where
// adaptive windows and a clean graph cut pay off most.
func parallelPingpongMesh(w, h, workers, rounds int) parallelRun {
	c := torusCluster(w, h, workers)
	pairList := make([][2]int, 0, w*h/2)
	for y := 0; y < h; y++ {
		for x := 0; x+1 < w; x += 2 {
			pairList = append(pairList, [2]int{y*w + x, y*w + x + 1})
		}
	}
	return runPingpongPairs(c, workers, rounds, pairList)
}

// parallelAllreduceRing is a ring allreduce over the torus in row-major
// rank order: every rank forwards its accumulating 64-byte chunk to the
// next rank each step, steps times, all rings advancing concurrently —
// the all-links-busy collective shape, with every partition cut carried
// by the rank ring.
func parallelAllreduceRing(w, h, workers, steps int) parallelRun {
	c := torusCluster(w, h, workers)
	n := w * h
	senders := make([]*tccluster.Sender, n)
	receivers := make([]*tccluster.Receiver, n)
	for i := 0; i < n; i++ {
		s, r, err := c.OpenChannel(i, (i+1)%n, tccluster.DefaultMsgParams())
		check(err)
		senders[i] = s
		receivers[(i+1)%n] = r
	}
	// Ranks finish on their own partition's goroutine, so the completion
	// count must be atomic.
	var completed atomic.Int64
	for i := 0; i < n; i++ {
		buf := make([]byte, 64)
		buf[0] = byte(i)
		send := senders[i]
		recv := receivers[i]
		var step func(s int)
		step = func(s int) {
			if s >= steps {
				completed.Add(1)
				return
			}
			recv.Recv(func(d []byte, err error) {
				if err != nil {
					return
				}
				// Fold the neighbor's chunk in, then pass ours along.
				for k := range buf {
					buf[k] += d[k]
				}
				step(s + 1)
			})
			send.Send(buf, func(error) {})
		}
		step(0)
	}
	startFired := c.EventsFired()
	t0 := time.Now()
	c.Run()
	wall := time.Since(t0).Seconds()
	if got := completed.Load(); got != int64(n) {
		check(fmt.Errorf("parallel bench: %d of %d ranks completed the ring", got, n))
	}
	return finishParallelRun(c, workers, wall, c.EventsFired()-startFired)
}

func finishParallelRun(c *tccluster.Cluster, workers int, wall float64, events uint64) parallelRun {
	r := parallelRun{
		Workers:        workers,
		Partitions:     c.Partitions(),
		Events:         events,
		WallSeconds:    wall,
		FinalVirtualNs: c.Now().Nanos(),
	}
	if events > 0 && wall > 0 {
		r.EventsPerSec = float64(events) / wall
	}
	return r
}

// benchParallelWorkload runs one workload serially and at each worker
// count — best wall time of repeat attempts each — fills in speedups
// against the serial run, and enforces that the final virtual time and
// event count never depend on the worker count or the attempt.
func benchParallelWorkload(name string, nodes int, workers []int, repeat int, lookahead func() int64, run func(workers int) parallelRun) parallelWorkload {
	if repeat < 1 {
		repeat = 1
	}
	best := func(wk int) parallelRun {
		r := run(wk)
		for i := 1; i < repeat; i++ {
			again := run(wk)
			if again.FinalVirtualNs != r.FinalVirtualNs || again.Events != r.Events {
				check(fmt.Errorf("parallel bench: %s not reproducible at %d workers: %d events / %.0f ns vs %d events / %.0f ns",
					name, wk, again.Events, again.FinalVirtualNs, r.Events, r.FinalVirtualNs))
			}
			if again.WallSeconds < r.WallSeconds {
				r = again
			}
		}
		return r
	}
	w := parallelWorkload{Name: name, Nodes: nodes, LookaheadPs: lookahead()}
	serial := best(0)
	w.Runs = append(w.Runs, serial)
	for _, wk := range workers {
		r := best(wk)
		if r.FinalVirtualNs != serial.FinalVirtualNs || r.Events != serial.Events {
			check(fmt.Errorf("parallel bench: %s diverged at %d workers: %d events / %.0f ns vs serial %d events / %.0f ns",
				name, wk, r.Events, r.FinalVirtualNs, serial.Events, serial.FinalVirtualNs))
		}
		if r.WallSeconds > 0 {
			r.SpeedupVsSerial = serial.WallSeconds / r.WallSeconds
		}
		w.Runs = append(w.Runs, r)
	}
	return w
}

// checkParallelBaseline fails when any workload/worker pair's speedup
// drops more than the tolerance below the committed baseline. The gate
// is skipped when the current machine has fewer CPUs than the baseline
// machine: speedups are a property of (code, core count), and a smaller
// runner can only report on itself.
func checkParallelBaseline(rep parallelReport, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("parallel baseline: %w", err)
	}
	var base parallelReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parallel baseline %s: %w", path, err)
	}
	if rep.Meta.NumCPU < base.Meta.NumCPU {
		fmt.Printf("parallel baseline: gate skipped (this machine has %d CPUs, baseline had %d)\n",
			rep.Meta.NumCPU, base.Meta.NumCPU)
		return nil
	}
	cur := map[string]map[int]float64{}
	for _, w := range rep.Workloads {
		cur[w.Name] = map[int]float64{}
		for _, r := range w.Runs {
			if r.Workers > 0 {
				cur[w.Name][r.Workers] = r.SpeedupVsSerial
			}
		}
	}
	for _, w := range base.Workloads {
		got, ok := cur[w.Name]
		if !ok {
			return fmt.Errorf("parallel baseline: workload %s missing from this run", w.Name)
		}
		for _, r := range w.Runs {
			if r.Workers == 0 || r.SpeedupVsSerial <= 0 {
				continue
			}
			s, ok := got[r.Workers]
			if !ok {
				return fmt.Errorf("parallel baseline: %s at %d workers missing from this run", w.Name, r.Workers)
			}
			floor := r.SpeedupVsSerial * (1 - parallelBaselineTolerance)
			if s < floor {
				return fmt.Errorf("parallel baseline: %s at %d workers regressed: speedup %.3fx below %.3fx (baseline %.3fx - %d%%)",
					w.Name, r.Workers, s, floor, r.SpeedupVsSerial, int(parallelBaselineTolerance*100))
			}
		}
	}
	fmt.Printf("parallel baseline: no workload regressed more than %d%% vs %s\n",
		int(parallelBaselineTolerance*100), path)
	return nil
}

func runParallelBench(out string, nodes int, baseline string, repeat int) {
	if out == "" {
		out = "BENCH_parallel.json"
	}
	if nodes < 4 {
		nodes = 8
	}
	const torusW, torusH = 16, 16
	workers := []int{1, 2, 4, 8}
	rep := parallelReport{Meta: stats.NewBenchMeta()}

	chainLook := func() int64 { return int64(parallelCluster(nodes, 2).Lookahead()) }
	torusLook := func() int64 { return int64(torusCluster(torusW, torusH, 2).Lookahead()) }
	rep.Workloads = append(rep.Workloads,
		benchParallelWorkload("pingpong-64B", nodes, workers, repeat, chainLook, func(w int) parallelRun {
			return parallelPingpong(nodes, w, 200)
		}),
		benchParallelWorkload("stream-64B-ring", nodes, workers, repeat, chainLook, func(w int) parallelRun {
			return parallelStream(nodes, w, 512)
		}),
		benchParallelWorkload("pingpong-mesh-torus256", torusW*torusH, workers, repeat, torusLook, func(w int) parallelRun {
			return parallelPingpongMesh(torusW, torusH, w, 20)
		}),
		benchParallelWorkload("allreduce-ring-torus256", torusW*torusH, workers, repeat, torusLook, func(w int) parallelRun {
			return parallelAllreduceRing(torusW, torusH, w, 32)
		}),
	)

	data, err := json.MarshalIndent(rep, "", "  ")
	check(err)

	fmt.Printf("tccbench parallel (%s, GOMAXPROCS=%d, NumCPU=%d, best of %d)\n",
		rep.Meta.GoVersion, rep.Meta.GOMAXPROCS, rep.Meta.NumCPU, repeat)
	for _, w := range rep.Workloads {
		fmt.Printf("  %s (%d nodes, lookahead %dps)\n", w.Name, w.Nodes, w.LookaheadPs)
		for _, r := range w.Runs {
			label := "serial"
			if r.Workers > 0 {
				label = fmt.Sprintf("%dw/%dp", r.Workers, r.Partitions)
			}
			fmt.Printf("    %-8s %9d events %8.3fs wall %10.0f ev/s speedup %.2fx\n",
				label, r.Events, r.WallSeconds, r.EventsPerSec, r.SpeedupVsSerial)
		}
	}
	// Gate before overwriting: -out and -baseline may name the same
	// committed file.
	if baseline != "" {
		check(checkParallelBaseline(rep, baseline))
	}
	check(os.WriteFile(out, append(data, '\n'), 0o644))
	fmt.Printf("wrote %s\n", out)
}

// parallelStream is the Fig. 6 shape on a ring of stores: every node
// streams posted 64-byte blocks into its right neighbor's DRAM, so the
// store traffic crosses every link including the partition cuts.
func parallelStream(n, workers, iters int) parallelRun {
	c := parallelCluster(n, workers)
	payload := make([]byte, 64)
	for i := 0; i < n; i++ {
		src := c.Node(i).Core()
		base := c.Node((i+1)%n).MemBase() + 8<<20
		var step func(k int)
		step = func(k int) {
			if k >= iters {
				return
			}
			src.StoreBlock(base+uint64(k%8)*64, payload, func(err error) {
				check(err)
				step(k + 1)
			})
		}
		step(0)
	}
	startFired := c.EventsFired()
	t0 := time.Now()
	c.Run()
	wall := time.Since(t0).Seconds()
	return finishParallelRun(c, workers, wall, c.EventsFired()-startFired)
}
