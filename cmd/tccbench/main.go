// Command tccbench is an OSU-microbenchmark-style runner over the
// TCCluster public API: point-to-point latency and bandwidth (uni- and
// bidirectional) through the message library, plus MPI collective
// timings — the tool a cluster operator would run first on a new
// fabric. The four sweeps report virtual time, so their tables are
// deterministic. The overhead bench is the one host-time measurement:
// it gates what the profiler and the live monitor cost on top of
// tracing.
//
// Usage:
//
//	tccbench -bench latency  [-max 4096]
//	tccbench -bench bw       [-max 65536]
//	tccbench -bench bibw
//	tccbench -bench allreduce [-nodes 8]
//	tccbench -bench overhead [-out BENCH_overhead.json]
//
// Simulator throughput is measured by the repository benchmark in
// bench/, not here.
package main

import (
	"flag"
	"fmt"
	"os"

	tccluster "repro"
	"repro/internal/stats"
)

func main() {
	bench := flag.String("bench", "latency", "latency | bw | bibw | allreduce | overhead")
	maxSize := flag.Int("max", 4096, "largest message size to sweep")
	nodes := flag.Int("nodes", 4, "cluster size (allreduce)")
	out := flag.String("out", "", "JSON output path (overhead benchmark)")
	flag.Parse()

	var t *stats.Table
	switch *bench {
	case "latency":
		t = runLatency(*maxSize)
	case "bw":
		t = runBW(*maxSize, false)
	case "bibw":
		t = runBW(*maxSize, true)
	case "allreduce":
		t = runAllreduce(*nodes)
	case "overhead":
		runOverheadBench(*out)
		return
	default:
		fmt.Fprintf(os.Stderr, "tccbench: unknown benchmark %q\n", *bench)
		os.Exit(2)
	}
	t.Render(os.Stdout)
}

func pair() *tccluster.Cluster {
	topo, err := tccluster.Chain(2)
	check(err)
	c, err := tccluster.New(topo, tccluster.DefaultConfig())
	check(err)
	return c
}

func runLatency(maxSize int) *stats.Table {
	t := &stats.Table{
		Title:   "tccbench latency (message-library ping-pong, virtual time)",
		Columns: []string{"size", "half RTT ns"},
	}
	for size := 8; size <= maxSize; size *= 2 {
		c := pair()
		sAB, rAB, err := c.OpenChannel(0, 1, tccluster.DefaultMsgParams())
		check(err)
		sBA, rBA, err := c.OpenChannel(1, 0, tccluster.DefaultMsgParams())
		check(err)
		if size > sAB.MaxMessage() {
			break
		}
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
		const iters = 10
		var total tccluster.Time
		completed := 0
		var round func(i int)
		round = func(i int) {
			if i >= iters {
				return
			}
			start := c.Now()
			rBA.Recv(func(_ []byte, err error) {
				if err != nil {
					return
				}
				total += c.Now() - start
				completed++
				round(i + 1)
			})
			sAB.Send(make([]byte, size), func(error) {})
		}
		round(0)
		c.RunFor(tccluster.Millisecond)
		rAB.Stop()
		rBA.Stop()
		c.Run()
		if completed != iters {
			check(fmt.Errorf("size %d: %d of %d rounds", size, completed, iters))
		}
		t.AddRow(stats.FormatSize(float64(size)),
			fmt.Sprintf("%.0f", (total/tccluster.Time(2*iters)).Nanos()))
	}
	return t
}

func runBW(maxSize int, bidir bool) *stats.Table {
	name := "unidirectional"
	if bidir {
		name = "bidirectional"
	}
	t := &stats.Table{
		Title:   fmt.Sprintf("tccbench %s bandwidth (raw posted stores, virtual time)", name),
		Columns: []string{"size", "MB/s"},
	}
	for size := 64; size <= maxSize; size *= 4 {
		c := pair()
		iters := 262144 / size
		if iters < 4 {
			iters = 4
		}
		stream := func(from, to int, done *tccluster.Time) {
			src := c.Node(from).Core()
			base := c.Node(to).MemBase() + 8<<20
			payload := make([]byte, size)
			var step func(i int)
			step = func(i int) {
				if i >= iters {
					src.Sfence(func() { *done = c.Now() })
					return
				}
				src.StoreBlock(base+uint64(i%8)*uint64(size), payload, func(err error) {
					check(err)
					step(i + 1)
				})
			}
			step(0)
		}
		start := c.Now()
		var doneAB, doneBA tccluster.Time
		stream(0, 1, &doneAB)
		if bidir {
			stream(1, 0, &doneBA)
		}
		c.Run()
		finish := doneAB
		bytes := size * iters
		if bidir {
			if doneBA > finish {
				finish = doneBA
			}
			bytes *= 2
		}
		mbs := float64(bytes) / float64(finish-start) * 1e12 / 1e6
		t.AddRow(stats.FormatSize(float64(size)), fmt.Sprintf("%.0f", mbs))
	}
	return t
}

func runAllreduce(nodes int) *stats.Table {
	topo, err := tccluster.Chain(nodes)
	check(err)
	c, err := tccluster.New(topo, tccluster.DefaultConfig())
	check(err)
	w, err := c.NewWorld(tccluster.DefaultMPIConfig())
	check(err)
	t := &stats.Table{
		Title:   fmt.Sprintf("tccbench allreduce (%d nodes, virtual time)", nodes),
		Columns: []string{"vector doubles", "latency us"},
	}
	for _, n := range []int{1, 8, 64, 256} {
		vec := make([]float64, n)
		start := c.Now()
		pending := nodes
		var finish tccluster.Time
		for r := 0; r < nodes; r++ {
			w.Rank(r).Allreduce(vec, tccluster.Sum, func(_ []float64, err error) {
				check(err)
				pending--
				if pending == 0 {
					finish = c.Now()
				}
			})
		}
		c.Run()
		if pending != 0 {
			check(fmt.Errorf("allreduce incomplete"))
		}
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.2f", (finish-start).Micros()))
	}
	return t
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tccbench:", err)
		os.Exit(1)
	}
}
