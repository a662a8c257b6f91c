package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"maps"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// testScale runs every batch at 1/100 of its size.
const testScale = "0.01"

var spinSink uint64

// spin burns CPU inside this package for d.
func spin(d time.Duration) uint64 {
	x := uint64(88172645463325252)
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1<<16; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	}
	return x
}

func TestProfileChargesBusyFunctionToBench(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	spinSink = spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	led := newLedger()
	for _, s := range samples {
		led.charge(s)
	}
	if led.total < 10 {
		t.Fatalf("only %d samples in 400ms of spinning", led.total)
	}
	if p := led.pct("bench"); p < 80 {
		t.Fatalf("bench charged %.1f%% of a profile spent spinning in this package (samples %v)", p, led.samples)
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct{ fn, file, want string }{
		{"repro/internal/sim.(*Engine).Step", "/x/internal/sim/engine.go", "sim"},
		{"repro/internal/sim.(*Parallel).runWindow", "/x/internal/sim/parallel.go", "sim.pdes"},
		{"repro/internal/core.PartitionGraphCut.func1", "/x/internal/core/partition.go", "sim.pdes"},
		{"repro/internal/core.(*Cluster).Run", "/x/internal/core/cluster.go", "core"},
		{"repro/internal/nb.(*Northbridge).forward", "/x/internal/nb/northbridge.go", "nb"},
		{"repro/internal/nb.(*MemoryController).OnEvent", "/x/internal/nb/memory.go", "nb.mc"},
		{"repro/internal/nb.(*Memory).Write", "/x/internal/nb/memory.go", "nb.mc"},
		{"repro/internal/ht.(*Port).transmit.func2", "/x/internal/ht/link.go", "ht"},
		{"repro/internal/cpu.(*Core).StoreBlock", "/x/internal/cpu/core.go", "cpu"},
		{"repro/internal/msg.(*Receiver).poll", "/x/internal/msg/channel.go", "msg"},
		{"repro/internal/mpi.(*Comm).Allreduce", "/x/internal/mpi/collectives.go", "mpi"},
		{"repro/internal/serve.(*nodeState).arrive", "/x/internal/serve/node.go", "serve"},
		{"repro/internal/firmware.BootTCCluster", "/x/internal/firmware/boot.go", "core"},
		{"repro.New", "/x/tccluster.go", "core"},
		{"repro/internal/prof.(*Hist).Observe", "/x/internal/prof/prof.go", "prof"},
		{"runtime/pprof.profileWriter", "/go/src/runtime/pprof/pprof.go", "prof"},
		{"main.buildRing.func3", "/x/bench/workloads.go", "bench"},
		{"repro/bench.spin", "/x/bench/bench_test.go", "bench"},
		{"runtime.mallocgc", "/go/src/runtime/malloc.go", ""},
		{"bytes.Equal", "/go/src/bytes/bytes.go", ""},
	} {
		if got := layerOf(tc.fn, tc.file); got != tc.want {
			t.Errorf("layerOf(%q) = %q, want %q", tc.fn, got, tc.want)
		}
	}
}

// TestSelfPctSumsTo100 profiles a real workload and checks the ledger
// charges the simulator's layers and accounts for every sample.
func TestSelfPctSumsTo100(t *testing.T) {
	r, err := measure(workloadByName("pingpong-chain2"), options{seed: 3, seconds: 1, trace: true, scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := r.perLayer()
	if err != nil {
		t.Fatal(err)
	}
	sum, got := 0.0, map[string]float64{}
	for _, m := range ms {
		got[m.name] = m.value
		if strings.HasSuffix(m.name, "self_pct") || m.name == "runtime.gc_pct" {
			sum += m.value
		}
	}
	if math.Abs(sum-100) > 1 {
		t.Fatalf("self_pct values sum to %.2f, want 100±1", sum)
	}
	for _, layer := range []string{"sim", "nb", "cpu"} {
		if got[layer+".self_pct"] <= 0 {
			t.Errorf("%s.self_pct = %v on a spin-polled ping-pong", layer, got[layer+".self_pct"])
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0xff, 0xff}) // a sample whose length runs past the end
	zw.Close()
	if _, err := parseProfile(buf.Bytes()); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Fatal("non-gzip input decoded without error")
	}
}

// TestRingParallelMatchesSerial runs 25 ring steps (a fifth of a batch)
// on the 2-worker executor; under -race it checks the driver's
// callbacks, which run on the partition goroutines.
func TestRingParallelMatchesSerial(t *testing.T) {
	w := workloadByName("ring-torus256")
	const steps = 25
	serial, err := runBatch(w, 7, steps, mode{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := runBatch(w, 7, steps, mode{workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if par.out.failed != 0 || par.out.ops != 256*steps {
		t.Fatalf("2 workers: %d of %d rank-steps failed", par.out.failed, par.out.ops)
	}
	if !maps.Equal(serial.out.outputs, par.out.outputs) {
		t.Fatalf("2 workers %v, serial %v", par.out.outputs, serial.out.outputs)
	}
}

func TestCheck(t *testing.T) {
	w := workloadByName("stream-chain2")
	good := map[string]string{"final_virtual_ns": "1", "mb_per_s": "2"}
	mk := func(outs ...map[string]string) *run {
		r := &run{w: w}
		for _, o := range outs {
			r.batches = append(r.batches, &batch{out: outcome{ops: 4, outputs: o}})
		}
		return r
	}
	if err := mk(good, good).check(good); err != nil {
		t.Fatalf("matching run rejected: %v", err)
	}
	if err := mk(good).check(map[string]string{"final_virtual_ns": "1", "mb_per_s": "3"}); err == nil {
		t.Fatal("golden mismatch accepted")
	}
	if err := mk(good, map[string]string{"final_virtual_ns": "2", "mb_per_s": "2"}).check(nil); err == nil {
		t.Fatal("diverging batches accepted")
	}
	r := mk(good)
	r.batches[0].out.failed = 1
	if err := r.check(nil); err == nil {
		t.Fatal("failed ops accepted")
	}
}

func TestNormalizeTrace(t *testing.T) {
	got := normalizeTrace([]string{"--workload", "x", "--trace", "0", "-seed", "1", "-trace", "1", "-trace"})
	want := []string{"--workload", "x", "--trace=0", "-seed", "1", "-trace=1", "-trace"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// benchSpec is the part of BENCHMARK.json the smoke test checks.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

// runBench runs the benchmark in-process and decodes its last line.
func runBench(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := benchMain(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v (stderr %s)", lines[len(lines)-1], err, stderr.String())
	}
	return code, res, stdout.String()
}

// TestSmoke runs every workload at 1/100 size, untraced and traced, and
// checks every metric BENCHMARK.json names is printed with its unit.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics", len(spec.EndToEnd), len(spec.PerLayer))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
	if len(spec.Workload) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workload), len(workloads))
	}
	for _, sw := range spec.Workload {
		if workloadByName(sw.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the benchmark", sw.Name)
		}
	}

	for _, pass := range []struct {
		trace   string
		metrics []struct{ Name, Unit string }
	}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
		code, res, out := runBench(t, "-scale", testScale, "-seconds", "0.3", "--trace", pass.trace)
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("trace %s: exit %d, result %+v", pass.trace, code, res)
		}
		if len(res.Metrics) != len(workloads)*len(pass.metrics) {
			t.Errorf("trace %s: %d metrics printed, want %d", pass.trace, len(res.Metrics), len(workloads)*len(pass.metrics))
		}
		for _, w := range workloads {
			selfSum := 0.0
			for _, m := range pass.metrics {
				got, ok := res.Metrics[w.name+"/"+m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("trace %s: %s %s printed as %+v (present %v), want unit %q", pass.trace, w.name, m.Name, got, ok, m.Unit)
				}
				if !strings.Contains(out, m.Name) {
					t.Errorf("trace %s: %s missing from the human-readable lines", pass.trace, m.Name)
				}
				if strings.HasSuffix(m.Name, "self_pct") || m.Name == "runtime.gc_pct" {
					selfSum += got.Value
				}
			}
			// A profile this short may catch no sample at all.
			if pass.trace == "1" && selfSum != 0 && math.Abs(selfSum-100) > 1 {
				t.Errorf("%s: self_pct values sum to %.2f", w.name, selfSum)
			}
		}
	}
}

// TestGoldenPerturbationFails checks a wrong golden value fails the run
// with a nonzero exit and every op counted as failed.
func TestGoldenPerturbationFails(t *testing.T) {
	orig := goldenJSON
	t.Cleanup(func() { goldenJSON = orig })
	var g goldenFile
	if err := json.Unmarshal(orig, &g); err != nil {
		t.Fatal(err)
	}
	g.Paper["fig7_half_rtt_ns_64B"] = "222.5"
	perturbed, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	goldenJSON = perturbed
	code, res, _ := runBench(t, "-workload", "stream-chain2", "-scale", testScale, "-seconds", "0")
	if code != 1 || res.Correct || res.Failed != res.Attempted {
		t.Fatalf("perturbed golden: exit %d, result %+v", code, res)
	}
}
