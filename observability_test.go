// Tests for the observability layer's public surface: functional
// options, sentinel errors, the metrics snapshot, and the determinism
// contract (same topology + Config + Seed => byte-identical traces).
package tccluster_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	tccluster "repro"
)

// pingPong runs rounds of size-byte ping-pong between the ends of an
// n-node chain cluster and fails the test if any round is lost.
func pingPong(t testing.TB, c *tccluster.Cluster, n, rounds, size int) {
	t.Helper()
	last := n - 1
	sAB, rAB, err := c.OpenChannel(0, last, tccluster.DefaultMsgParams())
	if err != nil {
		t.Fatal(err)
	}
	sBA, rBA, err := c.OpenChannel(last, 0, tccluster.DefaultMsgParams())
	if err != nil {
		t.Fatal(err)
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
	done := 0
	var round func(i int)
	round = func(i int) {
		if i >= rounds {
			return
		}
		rBA.Recv(func(_ []byte, err error) {
			if err != nil {
				return
			}
			done++
			round(i + 1)
		})
		sAB.Send(make([]byte, size), func(error) {})
	}
	round(0)
	c.RunFor(10 * tccluster.Millisecond)
	rAB.Stop()
	rBA.Stop()
	c.Run()
	if done != rounds {
		t.Fatalf("completed %d of %d ping-pong rounds", done, rounds)
	}
}

// tracedRun boots a seeded, fault-injecting chain with a collector
// installed, runs a ping-pong, and returns the serialized event stream.
func tracedRun(t testing.TB, seed uint64) []byte {
	t.Helper()
	topo, err := tccluster.Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tccluster.DefaultConfig()
	cfg.CableErrorRate = 0.05 // exercise the stochastic retry path
	col := tccluster.NewCollector(1 << 16)
	c, err := tccluster.New(topo, cfg,
		tccluster.WithTracer(col),
		tccluster.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	pingPong(t, c, 3, 4, 128)
	if col.Dropped() > 0 {
		t.Fatalf("collector dropped %d events; raise capacity", col.Dropped())
	}
	var buf bytes.Buffer
	if err := tccluster.WriteCSVTrace(&buf, col.Events()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The determinism regression: identical topology, Config and Seed must
// reproduce a byte-identical event stream even with fault injection on.
func TestTraceDeterministicReplay(t *testing.T) {
	first := tracedRun(t, 7)
	second := tracedRun(t, 7)
	if len(first) == 0 {
		t.Fatal("traced run produced no events")
	}
	if !bytes.Equal(first, second) {
		t.Fatal("same seed produced different event streams")
	}
}

// Different seeds must shift the fault stream (otherwise WithSeed is a
// no-op and the replay test above proves nothing).
func TestTraceSeedChangesFaultStream(t *testing.T) {
	if bytes.Equal(tracedRun(t, 7), tracedRun(t, 8)) {
		t.Fatal("different seeds produced identical event streams")
	}
}

func TestMetricsSnapshot(t *testing.T) {
	topo, err := tccluster.Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	col := tccluster.NewCollector(1 << 16)
	c, err := tccluster.New(topo, tccluster.DefaultConfig(),
		tccluster.WithTracer(col), tccluster.WithProfile())
	if err != nil {
		t.Fatal(err)
	}
	pingPong(t, c, 3, 2, 64)

	s := c.Metrics()
	var sent uint64
	for k, v := range s.Counters {
		if k.Name == "port.pkts_sent" {
			sent += v
		}
	}
	if sent == 0 {
		t.Error("no port.pkts_sent counters after a ping-pong")
	}
	if h := s.Histograms[tccluster.MetricKey{Name: "prof.link.ser_ps", Link: 0}]; h.Count == 0 {
		t.Error("no prof.link.ser_ps histogram for link 0")
	}
	boots := 0
	for _, ev := range col.Events() {
		if ev.Kind.String() == "boot-phase" {
			boots++
		}
	}
	if boots == 0 {
		t.Error("no boot-phase events traced")
	}
}

// Tracing must also flow through the kernel-options entry point, and
// the Chrome export of a real run must be valid JSON.
func TestChromeExportValidJSON(t *testing.T) {
	topo, err := tccluster.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	col := tccluster.NewCollector(1 << 14)
	c, err := tccluster.New(topo, tccluster.DefaultConfig(),
		tccluster.WithTracer(col),
		tccluster.WithKernelOptions(tccluster.KernelOptions{SMCDisabled: true}))
	if err != nil {
		t.Fatal(err)
	}
	pingPong(t, c, 2, 2, 64)
	var buf bytes.Buffer
	if err := tccluster.WriteChromeTrace(&buf, col.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export contains no events")
	}
}

func TestSentinelErrors(t *testing.T) {
	if _, err := tccluster.Chain(1); !errors.Is(err, tccluster.ErrBadConfig) {
		t.Errorf("Chain(1) error = %v, want ErrBadConfig", err)
	}

	ring, err := tccluster.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ring.CheckDeadlockFree(); !errors.Is(err, tccluster.ErrDeadlockTopology) {
		t.Errorf("Ring(4).CheckDeadlockFree() = %v, want ErrDeadlockTopology", err)
	}
	if err := ring.CheckIntervalRoutable(0); !errors.Is(err, tccluster.ErrUnroutable) {
		t.Errorf("CheckIntervalRoutable(0) = %v, want ErrUnroutable", err)
	}

	topo, err := tccluster.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tccluster.New(topo, tccluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A ring larger than the whole UC window cannot be hosted.
	par := tccluster.DefaultMsgParams()
	par.RingBytes = 2 * tccluster.DefaultConfig().UCWindow
	par.FCThreshold = par.RingBytes / 4
	if _, _, err := c.OpenChannel(0, 1, par); !errors.Is(err, tccluster.ErrRingFull) {
		t.Errorf("oversized ring error = %v, want ErrRingFull", err)
	}

	cfg := tccluster.DefaultConfig()
	cfg.SocketsPerNode = -1
	if _, err := tccluster.New(topo, cfg); !errors.Is(err, tccluster.ErrBadConfig) {
		t.Errorf("SocketsPerNode=-1 error = %v, want ErrBadConfig", err)
	}
}
