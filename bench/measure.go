package main

import (
	"bytes"
	"fmt"
	"maps"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// minSetups is how many setups a run times at least; setup_s is their
// median.
const minSetups = 10

// Indices of the read-only hardware and engine counters the ledger
// reads, each summed over every node, socket, core and external link.
const (
	cEvents = iota
	cHTPkts
	cHTBytes
	cCreditStalls
	cRetries
	cForwarded
	cFromCPU
	cFromLinks
	cAborts
	cMCReads
	cMCWrites
	cStores
	cLoads
	cWCPackets
	cWCStallRetries
	cFCStalls
	numCounters
)

type counters [numCounters]uint64

func readCounters(cl *cell) counters {
	c := cl.c
	var k counters
	k[cEvents] = c.EventsFired()
	for _, l := range c.ExternalLinks() {
		a, b := l.A().Stats(), l.B().Stats()
		k[cHTPkts] += a.PktsSent + b.PktsSent
		k[cHTBytes] += a.BytesSent + b.BytesSent
		k[cCreditStalls] += a.CreditStalls + b.CreditStalls
		k[cRetries] += a.Retries + b.Retries
	}
	for _, node := range c.Nodes() {
		for _, proc := range node.Machine().Procs {
			n := proc.NB.Counters()
			k[cForwarded] += n.PktsForwarded
			k[cFromCPU] += n.PktsFromCPU
			k[cFromLinks] += n.PktsFromLinks
			k[cAborts] += n.MasterAborts
			r, w := proc.NB.MemController().Stats()
			k[cMCReads] += r
			k[cMCWrites] += w
			for _, core := range proc.Cores {
				cc := core.Counters()
				k[cStores] += cc.Stores
				k[cLoads] += cc.Loads
				k[cWCPackets] += cc.WCPacketsSent
				k[cWCStallRetries] += cc.WCStallRetries
			}
		}
	}
	for _, tx := range cl.senders {
		k[cFCStalls] += tx.Stats().FCStalls
	}
	return k
}

func (k counters) sub(b counters) counters {
	for i := range k {
		k[i] -= b[i]
	}
	return k
}

// batch is one measured execution of a workload's batch.
type batch struct {
	m             mode
	boot, open    time.Duration // setup wall time: tccluster.New, then the workload's channels
	bootVirtualNS float64
	wall          time.Duration
	out           outcome
	ctr           counters
	allocBytes    uint64
	allocs        uint64
	liveHeap      uint64
	budget        map[string]float64 // profiler phase -> mean virtual ps
	pdes          *pdesStats
	cpuProfile    []byte
}

type pdesStats struct {
	occupancy, imbalance, windows, meanWindowNS, serialMS, mailboxPosts float64
}

// procs is the GOMAXPROCS a batch runs at: one per executor worker, and
// one for the serial engine, so the garbage collector shares the
// simulation's CPU instead of running on whichever other CPU the host
// has free at the moment. That puts the collector's work into the
// measured wall time and keeps it steady on a shared host.
func procs(m mode) int { return max(1, m.workers) }

// runBatch builds a fresh cluster, runs one batch on it and reads the
// ledger. Only the run itself is timed; the garbage of the previous
// batch is collected before the build so no batch pays for another.
func runBatch(w *workload, seed uint64, ops int, m mode) (*batch, error) {
	runtime.GOMAXPROCS(procs(m))
	runtime.GC()
	cl, err := w.build(seed, ops, m)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	b := &batch{m: m, boot: cl.boot, open: cl.open, bootVirtualNS: cl.c.Now().Nanos()}
	before := readCounters(cl)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var prof bytes.Buffer
	if m.profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	t0 := time.Now()
	cl.run()
	b.wall = time.Since(t0)
	if m.profile {
		pprof.StopCPUProfile()
		b.cpuProfile = prof.Bytes()
	}
	out, err := cl.result()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	runtime.ReadMemStats(&ms1)
	b.out = out
	b.ctr = readCounters(cl).sub(before)
	b.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	b.allocs = ms1.Mallocs - ms0.Mallocs
	if s := cl.c.Profile(); s != nil {
		b.budget = map[string]float64{}
		for _, ph := range s.Budget {
			b.budget[ph.Phase] = ph.MeanPS
		}
		if p := s.PDES; p != nil {
			b.pdes = &pdesStats{occupancy: p.Occupancy, imbalance: p.Imbalance,
				windows: float64(p.Windows), meanWindowNS: p.MeanWindowNs, serialMS: p.SerialMS}
			for _, row := range p.MailboxPosts {
				for _, n := range row {
					b.pdes.mailboxPosts += float64(n)
				}
			}
		}
	}
	// The live heap is read with the cluster still reachable.
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	b.liveHeap = ms1.HeapAlloc
	runtime.KeepAlive(cl)
	return b, nil
}

// options are the command-line settings of one benchmark run.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	scale   float64
}

// run is everything measured on one workload.
type run struct {
	w       *workload
	ops     int // batch size after scaling
	batches []*batch
	// Setup wall times in seconds: tccluster.New, then opening the
	// workload's channels, world or service. Every serial unprofiled
	// batch contributes one sample.
	boots, opens []float64
}

// pdesPairs is how many serial/2-worker pairs a traced run of a parallel
// workload profiles after its timed cycles.
const pdesPairs = 3

// measure runs one workload: an untimed warm-up at a tenth of the batch
// size, then serial cycles until the run has lasted o.seconds (each
// cycle one batch, plus a profiled batch when tracing), then the
// 2-worker batches of a parallel workload. Every serial unprofiled
// batch's build is a setup sample; a run too short for minSetups
// batches tops them up with builds of its own.
//
// The parallel executor's worker goroutines outlive their cluster, so
// every 2-worker cluster stays reachable for the rest of the process.
// Running those batches after the timed serial ones keeps that leak out
// of the serial timings and the live heap: an untraced run has one
// 2-worker batch, which checks the executor reproduces the serial
// outputs; a traced run profiles pdesPairs serial/2-worker pairs.
func measure(w *workload, o options) (*run, error) {
	ops := max(1, int(float64(w.batch)*o.scale+0.5))
	if _, err := runBatch(w, o.seed, max(1, ops/10), mode{}); err != nil {
		return nil, err
	}
	r := &run{w: w, ops: ops}
	cycle := []mode{{}}
	if o.trace {
		cycle = append(cycle, mode{profile: true})
	}
	var tail []mode
	if w.parallel {
		tail = []mode{{workers: 2}}
		if o.trace {
			tail = nil
			for i := 0; i < pdesPairs; i++ {
				tail = append(tail, mode{profile: true}, mode{workers: 2, profile: true})
			}
		}
	}
	start := time.Now()
	for len(r.batches) == 0 || time.Since(start).Seconds() < o.seconds {
		if err := r.runModes(o.seed, cycle); err != nil {
			return nil, err
		}
	}
	if err := r.runModes(o.seed, tail); err != nil {
		return nil, err
	}
	return r, r.timeSetups(o.seed)
}

func (r *run) runModes(seed uint64, modes []mode) error {
	for _, m := range modes {
		b, err := runBatch(r.w, seed, r.ops, m)
		if err != nil {
			return err
		}
		r.batches = append(r.batches, b)
		if m == (mode{}) {
			r.boots = append(r.boots, b.boot.Seconds())
			r.opens = append(r.opens, b.open.Seconds())
		}
	}
	return nil
}

// timeSetups tops the setup samples up to minSetups, each build starting
// from a collected heap like a batch's.
func (r *run) timeSetups(seed uint64) error {
	runtime.GOMAXPROCS(procs(mode{}))
	for len(r.boots) < minSetups {
		runtime.GC()
		cl, err := r.w.build(seed, r.ops, mode{})
		if err != nil {
			return fmt.Errorf("%s: setup: %w", r.w.name, err)
		}
		r.boots = append(r.boots, cl.boot.Seconds())
		r.opens = append(r.opens, cl.open.Seconds())
	}
	return nil
}

// check verifies the run's simulated outputs: no op failed, every batch
// reproduced the first batch bit for bit (serial and 2-worker alike),
// and, for the golden seed at full size, the committed fingerprint.
func (r *run) check(golden map[string]string) error {
	first := r.batches[0].out.outputs
	for i, b := range r.batches {
		if b.out.failed != 0 {
			return fmt.Errorf("%s: batch %d: %d of %d ops failed", r.w.name, i, b.out.failed, b.out.ops)
		}
		if !maps.Equal(b.out.outputs, first) {
			return fmt.Errorf("%s: batch %d (workers %d) diverged: %v, first batch %v",
				r.w.name, i, b.m.workers, b.out.outputs, first)
		}
	}
	if golden == nil {
		return nil
	}
	if !maps.Equal(first, golden) {
		return fmt.Errorf("%s: fingerprint %v does not match golden %v", r.w.name, first, golden)
	}
	return nil
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// collect gathers f over the batches matching keep.
func (r *run) collect(keep func(*batch) bool, f func(*batch) float64) []float64 {
	var xs []float64
	for _, b := range r.batches {
		if keep(b) {
			xs = append(xs, f(b))
		}
	}
	return xs
}

func isMode(m mode) func(*batch) bool { return func(b *batch) bool { return b.m == m } }

func opsPerS(b *batch) float64 { return float64(b.out.ops) / b.wall.Seconds() }

// endToEnd reports the untraced metrics.
func (r *run) endToEnd() []metric {
	serial := isMode(mode{})
	setups := make([]float64, len(r.boots))
	for i := range setups {
		setups[i] = r.boots[i] + r.opens[i]
	}
	return []metric{
		{"ops_per_s", median(r.collect(serial, opsPerS)), "1/s"},
		{"sim_ns_per_s", median(r.collect(serial, func(b *batch) float64 { return b.out.virtualNS / b.wall.Seconds() })), "sim_ns/s"},
		{"setup_s", median(setups), "s"},
		{"live_heap_mb", median(r.collect(serial, func(b *batch) float64 { return float64(b.liveHeap) / 1e6 })), "MB"},
	}
}

// perLayer reports the traced metrics: the sampled CPU ledger of the
// profiled batches, the counters of the first serial batch (they repeat
// exactly), the profiler's phase budget and the executor's accounting.
func (r *run) perLayer() ([]metric, error) {
	serial := isMode(mode{})
	var first *batch
	for _, b := range r.batches {
		if serial(b) {
			first = b
			break
		}
	}
	led := newLedger()
	var tracedOps, tracedEvents float64
	var budget map[string]float64
	for _, b := range r.batches {
		if !b.m.profile {
			continue
		}
		samples, err := parseProfile(b.cpuProfile)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.w.name, err)
		}
		for _, s := range samples {
			led.charge(s)
		}
		tracedOps += float64(b.out.ops)
		tracedEvents += float64(b.ctr[cEvents])
		if budget == nil {
			budget = b.budget
		}
	}
	ops := float64(first.out.ops)
	k := first.ctr
	perOp := func(v uint64) float64 { return float64(v) / ops }
	selfNSPerOp := func(layer string) float64 { return float64(led.cpuNS[layer]) / tracedOps }

	pdes := func(f func(*pdesStats) float64) float64 {
		return median(r.collect(func(b *batch) bool { return b.pdes != nil }, func(b *batch) float64 { return f(b.pdes) }))
	}
	var speedup, serialPct float64
	if r.w.parallel {
		par := isMode(mode{workers: 2, profile: true})
		prof := isMode(mode{profile: true})
		wall := func(b *batch) float64 { return b.wall.Seconds() }
		speedup = median(r.collect(prof, wall)) / median(r.collect(par, wall))
		serialPct = median(r.collect(par, func(b *batch) float64 { return 100 * b.pdes.serialMS / 1e3 / b.wall.Seconds() }))
	}
	untraced := median(r.collect(serial, opsPerS))
	traced := median(r.collect(isMode(mode{profile: true}), opsPerS))

	var local, replicas, shed, timeouts float64
	if s := first.out.serve; s != nil {
		local = 100 * float64(s.Local) / float64(s.Requests)
		replicas = float64(s.Replicas) / float64(s.Requests)
		shed = float64(s.Shed)
		timeouts = float64(s.Timeouts)
	}
	return []metric{
		{"sim.events_per_op", perOp(k[cEvents]), "count"},
		{"sim.self_pct", led.pct("sim"), "%"},
		{"sim.ns_per_event", float64(led.cpuNS["sim"]) / tracedEvents, "ns"},

		{"sim.pdes.speedup_2w", speedup, "x"},
		{"sim.pdes.occupancy", pdes(func(p *pdesStats) float64 { return p.occupancy }), "ratio"},
		{"sim.pdes.imbalance", pdes(func(p *pdesStats) float64 { return p.imbalance }), "ratio"},
		{"sim.pdes.windows", pdes(func(p *pdesStats) float64 { return p.windows }), "count"},
		{"sim.pdes.mean_window_ns", pdes(func(p *pdesStats) float64 { return p.meanWindowNS }), "sim_ns"},
		{"sim.pdes.serial_pct", serialPct, "%"},
		{"sim.pdes.mailbox_posts", pdes(func(p *pdesStats) float64 { return p.mailboxPosts }), "count"},
		{"sim.pdes.self_pct", led.pct("sim.pdes"), "%"},

		{"ht.pkts_per_op", perOp(k[cHTPkts]), "count"},
		{"ht.bytes_per_op", perOp(k[cHTBytes]), "count"},
		{"ht.credit_stalls", float64(k[cCreditStalls]), "count"},
		{"ht.retries", float64(k[cRetries]), "count"},
		{"ht.self_pct", led.pct("ht"), "%"},
		{"ht.self_ns_per_op", selfNSPerOp("ht"), "ns"},
		{"ht.queue_ps", budget["link.queue"], "sim_ps"},
		{"ht.ser_ps", budget["link.ser"], "sim_ps"},

		{"nb.pkts_forwarded_per_op", perOp(k[cForwarded]), "count"},
		{"nb.pkts_from_cpu_per_op", perOp(k[cFromCPU]), "count"},
		{"nb.pkts_from_links_per_op", perOp(k[cFromLinks]), "count"},
		{"nb.master_aborts", float64(k[cAborts]), "count"},
		{"nb.self_pct", led.pct("nb"), "%"},
		{"nb.self_ns_per_op", selfNSPerOp("nb"), "ns"},
		{"nb.hop_ps", budget["nb.hop"], "sim_ps"},
		{"nb.xbar_ps", budget["nb.xbar"], "sim_ps"},

		{"nb.mc.reads_per_op", perOp(k[cMCReads]), "count"},
		{"nb.mc.writes_per_op", perOp(k[cMCWrites]), "count"},
		{"nb.mc.self_pct", led.pct("nb.mc"), "%"},
		{"nb.mc.service_ps", budget["mem.service"], "sim_ps"},

		{"cpu.stores_per_op", perOp(k[cStores]), "count"},
		{"cpu.loads_per_op", perOp(k[cLoads]), "count"},
		{"cpu.wc_packets_per_op", perOp(k[cWCPackets]), "count"},
		{"cpu.wc_stall_retries", float64(k[cWCStallRetries]), "count"},
		{"cpu.self_pct", led.pct("cpu"), "%"},
		{"cpu.self_ns_per_op", selfNSPerOp("cpu"), "ns"},
		{"cpu.wcflush_ps", budget["cpu.wcflush"], "sim_ps"},

		{"msg.fc_stalls", float64(k[cFCStalls]), "count"},
		{"msg.self_pct", led.pct("msg"), "%"},
		{"msg.self_ns_per_op", selfNSPerOp("msg"), "ns"},
		{"msg.poll_ps", budget["msg.poll"], "sim_ps"},

		{"mpi.self_pct", led.pct("mpi"), "%"},
		{"mpi.self_ns_per_op", selfNSPerOp("mpi"), "ns"},

		{"serve.local_pct", local, "%"},
		{"serve.replicas_per_op", replicas, "count"},
		{"serve.shed", shed, "count"},
		{"serve.timeouts", timeouts, "count"},
		{"serve.self_pct", led.pct("serve"), "%"},

		{"core.boot_s", median(r.boots), "s"},
		{"core.open_s", median(r.opens), "s"},
		{"core.boot_virtual_ns", first.bootVirtualNS, "sim_ns"},
		{"core.self_pct", led.pct("core"), "%"},

		{"runtime.gc_pct", led.pct(runtimeLayer), "%"},
		{"runtime.alloc_bytes_per_op", median(r.collect(serial, func(b *batch) float64 { return float64(b.allocBytes) / float64(b.out.ops) })), "count"},
		{"runtime.allocs_per_op", median(r.collect(serial, func(b *batch) float64 { return float64(b.allocs) / float64(b.out.ops) })), "count"},

		{"bench.self_pct", led.pct("bench"), "%"},

		{"prof.overhead_pct", 100 * (1 - traced/untraced), "%"},
		{"prof.self_pct", led.pct("prof"), "%"},
	}, nil
}

// attempted and failed count the ops of every measured batch.
func (r *run) attempted() (n int) {
	for _, b := range r.batches {
		n += b.out.ops
	}
	return n
}

func (r *run) failed() (n int) {
	for _, b := range r.batches {
		n += b.out.failed
	}
	return n
}
