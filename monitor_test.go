// End-to-end test of the live-monitoring subsystem: a cluster built
// WithMonitor serves valid Prometheus text over real HTTP while the
// simulation runs, counters only ever move forward between scrapes, the
// watchdog detects an injected dead link, and the auto-dump captures
// the flight-recorder windows leading into the incident.
package tccluster_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	tccluster "repro"
)

var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\} [-+0-9.eE]+$`)

// scrapeMetrics fetches /metrics, validates every line against the
// Prometheus 0.0.4 text format — each family has exactly one TYPE line,
// ahead of its samples — and returns each counter series value and the
// type of every family.
func scrapeMetrics(t *testing.T, addr string) (counters map[string]float64, families map[string]string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics Content-Type %q lacks text-format version", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	counters = map[string]float64{}
	families = map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if _, dup := families[f[2]]; dup {
				t.Fatalf("family %s has a second TYPE line", f[2])
			}
			families[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed Prometheus line: %q", line)
		}
		name := line[:strings.IndexByte(line, '{')]
		family := name
		if _, ok := families[family]; !ok {
			family = strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		}
		if _, ok := families[family]; !ok {
			t.Fatalf("sample %q precedes its family's TYPE line", line)
		}
		if families[name] == "counter" {
			var v float64
			series := line[:strings.LastIndexByte(line, ' ')]
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v)
			counters[series] = v
		}
	}
	return counters, families
}

func TestMonitorEndToEnd(t *testing.T) {
	topo, err := tccluster.Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	dumpPath := filepath.Join(t.TempDir(), "incident.json")
	alerts := make(chan tccluster.Alert, 64)
	c, err := tccluster.New(topo, tccluster.DefaultConfig(),
		tccluster.WithTracer(tccluster.NewCollector(1<<14)),
		tccluster.WithMonitor("127.0.0.1:0",
			tccluster.MonitorSampleEvery(20*tccluster.Microsecond),
			tccluster.MonitorOnAlert(func(a tccluster.Alert) {
				select {
				case alerts <- a:
				default:
				}
			}),
			tccluster.MonitorAutoDump(dumpPath)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr := c.Monitor().Addr()
	if addr == "" {
		t.Fatal("WithMonitor(addr) did not bind a listener")
	}

	// Traffic across both links of the chain: 0 -> 2 echoed back by 2.
	s02, r02, err := c.OpenChannel(0, 2, tccluster.DefaultMsgParams())
	if err != nil {
		t.Fatal(err)
	}
	s20, r20, err := c.OpenChannel(2, 0, tccluster.DefaultMsgParams())
	if err != nil {
		t.Fatal(err)
	}
	var echo func()
	echo = func() {
		r02.Recv(func(d []byte, err error) {
			if err != nil {
				return
			}
			s20.Send(d, func(error) {})
			echo()
		})
	}
	echo()
	runRounds := func(rounds int) {
		done := 0
		var round func(i int)
		round = func(i int) {
			if i >= rounds {
				return
			}
			r20.Recv(func(_ []byte, err error) {
				if err != nil {
					return
				}
				done++
				round(i + 1)
			})
			s02.Send(make([]byte, 256), func(error) {})
		}
		round(0)
		c.RunFor(5 * tccluster.Millisecond)
		if done != rounds {
			t.Fatalf("completed %d of %d rounds", done, rounds)
		}
	}

	// Scrape concurrently with the running simulation: the scrape path
	// must be race-free against the sim goroutine (this test runs under
	// -race in CI) and must not perturb it.
	var wg sync.WaitGroup
	scrapeErrs := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := &http.Client{Timeout: 5 * time.Second}
		for i := 0; i < 10; i++ {
			for _, path := range []string{"/metrics", "/metrics.json", "/health"} {
				resp, err := client.Get("http://" + addr + path)
				if err != nil {
					select {
					case scrapeErrs <- err:
					default:
					}
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	runRounds(100)
	wg.Wait()
	select {
	case err := <-scrapeErrs:
		t.Fatalf("concurrent scrape failed: %v", err)
	default:
	}

	first, _ := scrapeMetrics(t, addr)
	if len(first) == 0 {
		t.Fatal("no counter series scraped")
	}
	for _, want := range []string{"tcc_port_pkts_sent", "tcc_port_pkts_recv", "tcc_nb_pkts_forwarded"} {
		found := false
		for series := range first {
			if strings.HasPrefix(series, want+"{") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s series in scrape", want)
		}
	}
	runRounds(100)
	second, _ := scrapeMetrics(t, addr)
	for series, v1 := range first {
		v2, ok := second[series]
		if !ok {
			t.Errorf("counter series %s disappeared between scrapes", series)
			continue
		}
		if v2 < v1 {
			t.Errorf("counter %s went backwards: %g -> %g", series, v1, v2)
		}
	}

	// Inject a dead link (cable pull). Keep virtual time moving with the
	// still-polling receivers so sampling windows keep closing; the
	// dead-link rule needs its sustain count of down windows.
	c.ExternalLinks()[0].ForceDown()
	for i := 0; i < 4; i++ {
		s02.Send(make([]byte, 64), func(error) {}) // failing send attempts
	}
	c.RunFor(2 * tccluster.Millisecond)

	var dead *tccluster.Alert
drain:
	for {
		select {
		case a := <-alerts:
			if a.Rule == "dead-link" && a.Active() {
				dead = &a
				break drain
			}
		default:
			break drain
		}
	}
	if dead == nil {
		t.Fatal("watchdog did not raise a dead-link alert after ForceDown")
	}

	// The monitor must now report degraded health...
	resp, err := http.Get("http://" + addr + "/health")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/health status %d with an active alert, want 503", resp.StatusCode)
	}
	// ...and list the alert.
	resp, err = http.Get("http://" + addr + "/alerts")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Active []tccluster.Alert `json:"active"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range doc.Active {
		if a.Rule == "dead-link" {
			found = true
		}
	}
	if !found {
		t.Fatalf("/alerts active = %+v, want a dead-link alert", doc.Active)
	}

	// The auto-dump captured the windows leading INTO the incident.
	raw, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatalf("auto-dump file missing: %v", err)
	}
	var dump struct {
		Reason  string `json:"reason"`
		Windows []struct {
			StartPS int64 `json:"start_ps"`
			EndPS   int64 `json:"end_ps"`
		} `json:"windows"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("auto-dump is not valid JSON: %v", err)
	}
	if !strings.HasPrefix(dump.Reason, "alert:") {
		t.Fatalf("dump reason %q, want alert trigger", dump.Reason)
	}
	if len(dump.Windows) < 2 {
		t.Fatalf("dump has %d windows, want pre-incident history", len(dump.Windows))
	}
	if got := tccluster.Time(dump.Windows[0].StartPS); got >= dead.RaisedAt {
		t.Fatalf("oldest dumped window starts at %v, not before the alert at %v",
			got, dead.RaisedAt)
	}

	r02.Stop()
	r20.Stop()
	c.Run()
}

// TestMonitorEndToEndParallel runs the monitoring stack against the
// partitioned parallel engine: Prometheus scrapes race the worker
// goroutines (this test runs under -race in CI), counters stay
// monotone, and a cable pull on an intra-partition link still raises
// the dead-link watchdog — sampling and shard merging happen at window
// barriers, so the whole observability path must stay correct when the
// simulation is spread across partitions.
func TestMonitorEndToEndParallel(t *testing.T) {
	topo, err := tccluster.Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	alerts := make(chan tccluster.Alert, 64)
	c, err := tccluster.New(topo, tccluster.DefaultConfig(),
		tccluster.WithParallel(2),
		tccluster.WithTracer(tccluster.NewCollector(1<<14)),
		tccluster.WithMonitor("127.0.0.1:0",
			tccluster.MonitorSampleEvery(20*tccluster.Microsecond),
			tccluster.MonitorOnAlert(func(a tccluster.Alert) {
				select {
				case alerts <- a:
				default:
				}
			})))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Partitions(); got != 2 {
		t.Fatalf("Partitions() = %d, want 2", got)
	}
	addr := c.Monitor().Addr()

	// Traffic across the partition cut: 0 -> 3 echoed back by 3.
	s03, r03, err := c.OpenChannel(0, 3, tccluster.DefaultMsgParams())
	if err != nil {
		t.Fatal(err)
	}
	s30, r30, err := c.OpenChannel(3, 0, tccluster.DefaultMsgParams())
	if err != nil {
		t.Fatal(err)
	}
	var echo func()
	echo = func() {
		r03.Recv(func(d []byte, err error) {
			if err != nil {
				return
			}
			s30.Send(d, func(error) {})
			echo()
		})
	}
	echo()
	runRounds := func(rounds int) {
		var done atomic.Int64
		var round func(i int)
		round = func(i int) {
			if i >= rounds {
				return
			}
			r30.Recv(func(_ []byte, err error) {
				if err != nil {
					return
				}
				done.Add(1)
				round(i + 1)
			})
			s03.Send(make([]byte, 256), func(error) {})
		}
		round(0)
		c.RunFor(5 * tccluster.Millisecond)
		if done.Load() != int64(rounds) {
			t.Fatalf("completed %d of %d rounds", done.Load(), rounds)
		}
	}

	// Scrape all endpoints concurrently with the running partitions.
	var wg sync.WaitGroup
	scrapeErrs := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := &http.Client{Timeout: 5 * time.Second}
		for i := 0; i < 10; i++ {
			for _, path := range []string{"/metrics", "/metrics.json", "/health"} {
				resp, err := client.Get("http://" + addr + path)
				if err != nil {
					select {
					case scrapeErrs <- err:
					default:
					}
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	runRounds(100)
	wg.Wait()
	select {
	case err := <-scrapeErrs:
		t.Fatalf("concurrent scrape failed: %v", err)
	default:
	}

	first, _ := scrapeMetrics(t, addr)
	if len(first) == 0 {
		t.Fatal("no counter series scraped")
	}
	runRounds(100)
	second, _ := scrapeMetrics(t, addr)
	for series, v1 := range first {
		v2, ok := second[series]
		if !ok {
			t.Errorf("counter series %s disappeared between scrapes", series)
			continue
		}
		if v2 < v1 {
			t.Errorf("counter %s went backwards: %g -> %g", series, v1, v2)
		}
	}

	// Pull an intra-partition cable while the cross-cut channel keeps
	// polling so sample windows keep closing. Link 0 joins chain nodes
	// 0 and 1, both in partition 0; ForceDown mutates port state, so it
	// must happen between runs, while every worker is parked.
	if c.Partition(0) != c.Partition(1) {
		t.Fatal("chain link 0 unexpectedly crosses the partition cut")
	}
	c.ExternalLinks()[0].ForceDown()
	for i := 0; i < 4; i++ {
		s03.Send(make([]byte, 64), func(error) {}) // failing send attempts
	}
	c.RunFor(2 * tccluster.Millisecond)

	var dead *tccluster.Alert
drain:
	for {
		select {
		case a := <-alerts:
			if a.Rule == "dead-link" && a.Active() {
				dead = &a
				break drain
			}
		default:
			break drain
		}
	}
	if dead == nil {
		t.Fatal("watchdog did not raise a dead-link alert after ForceDown")
	}
	resp, err := http.Get("http://" + addr + "/health")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/health status %d with an active alert, want 503", resp.StatusCode)
	}

	r03.Stop()
	r30.Stop()
	c.Run()
}

// TestMetricsCarriesServeProfileAndPDES: one /metrics scrape of a
// monitored, profiled, 2-worker cluster running a serving service
// carries all three kinds of series — serve, profiler phases and PDES
// accounting — through the one Prometheus writer, and the serve
// counters it reports agree with the service's own report.
func TestMetricsCarriesServeProfileAndPDES(t *testing.T) {
	topo, err := tccluster.Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tccluster.New(topo, tccluster.DefaultConfig(),
		tccluster.WithParallel(2),
		tccluster.WithProfile(),
		tccluster.WithMonitor("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr := c.Monitor().Addr()
	cfg := tccluster.DefaultServeConfig()
	cfg.RequestsPerNode = 200
	svc, err := c.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	// 200 arrivals 2 us apart take ~400 us per node: at 150 us the
	// service is mid-run.
	c.RunFor(150 * tccluster.Microsecond)
	counters, families := scrapeMetrics(t, addr)
	for name, typ := range map[string]string{
		"tcc_serve_requests":          "counter",
		"tcc_serve_latency_ps":        "summary",
		"tcc_prof_link_ser_ps":        "summary",
		"tcc_prof_nb_hop_ps":          "summary",
		"tcc_prof_pdes_windows":       "counter",
		"tcc_prof_pdes_mailbox_posts": "counter",
	} {
		if families[name] != typ {
			t.Errorf("mid-run /metrics: family %s has type %q, want %q", name, families[name], typ)
		}
	}
	const requests = `tcc_serve_requests{node="0",link="0",chan="0"}`
	mid := counters[requests]

	svc.Stop()
	c.Run()
	r := svc.Report()
	if mid == 0 || mid >= float64(r.Requests) {
		t.Errorf("mid-run scrape saw %g of %d requests, want some but not all", mid, r.Requests)
	}
	counters, _ = scrapeMetrics(t, addr)
	if got := counters[requests]; got != float64(r.Requests) {
		t.Errorf("/metrics serve requests = %g, report says %d", got, r.Requests)
	}
	if got := counters[`tcc_serve_completed{node="0",link="0",chan="0"}`]; got != float64(r.Completed) {
		t.Errorf("/metrics serve completions = %g, report says %d", got, r.Completed)
	}
}

// TestRingFullRuleWithoutTracer: ring-full stalls are counted by the
// sending node, not derived from trace events, so the default watchdog's
// ring-full rule fires on a cluster built with no tracer when a sender
// keeps sending to a receiver that never polls.
func TestRingFullRuleWithoutTracer(t *testing.T) {
	topo, err := tccluster.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	var raised []tccluster.Alert
	c, err := tccluster.New(topo, tccluster.DefaultConfig(),
		tccluster.WithMonitor("", tccluster.MonitorOnAlert(func(a tccluster.Alert) {
			if a.Active() {
				raised = append(raised, a)
			}
		})))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, r, err := c.OpenChannel(0, 1, tccluster.DefaultMsgParams())
	if err != nil {
		t.Fatal(err)
	}
	r.Stop()
	for i := 0; i < 64; i++ {
		s.Send(make([]byte, 256), func(error) {})
	}
	// The sender spin-polls flow control forever; bound the run.
	c.RunFor(1 * tccluster.Millisecond)

	found := false
	for _, a := range raised {
		found = found || a.Rule == "ring-full" && a.Target.Node == 0
	}
	if !found {
		t.Errorf("alerts raised %+v, want a ring-full alert on node 0", raised)
	}
	if n := c.Metrics().Counters[tccluster.MetricKey{Name: "msg.ring_full", Node: 0}]; n == 0 {
		t.Error("no msg.ring_full stalls counted on node 0")
	}
}

// TestServeSeriesReachRecorderWindows: a deployed service's serve.*
// counters are part of the one snapshot the monitor samples, so they
// show up in flight-recorder window deltas (and so in watchdog input),
// not only on /metrics.
func TestServeSeriesReachRecorderWindows(t *testing.T) {
	topo, err := tccluster.Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tccluster.New(topo, tccluster.DefaultConfig(),
		tccluster.WithMonitor("", tccluster.MonitorSampleEvery(50*tccluster.Microsecond)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfg := tccluster.DefaultServeConfig()
	cfg.RequestsPerNode = 100
	svc, err := c.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	c.RunFor(400 * tccluster.Microsecond)
	svc.Stop()
	c.Run()

	var completed uint64
	for _, w := range c.Monitor().Recorder().Windows() {
		completed += w.Delta.Counters[tccluster.MetricKey{Name: "serve.completed"}]
	}
	if completed == 0 {
		t.Fatal("no serve.completed increase in any flight-recorder window")
	}
	if r := svc.Report(); completed > r.Completed {
		t.Fatalf("windows saw %d completions, report says only %d", completed, r.Completed)
	}
}

// TestMPIAndFlapSeriesWithoutTracer: with no tracer installed, an MPI
// barrier moves the mpi.barrier_* counters and a link flap moves
// link.state_changes on /metrics.json — the series tcctop's MPI and
// FLAPS columns read.
func TestMPIAndFlapSeriesWithoutTracer(t *testing.T) {
	topo, err := tccluster.Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tccluster.New(topo, tccluster.DefaultConfig(),
		// Boot takes ~1.2 ms; flap well after the barrier is done.
		tccluster.WithFaults(tccluster.LinkFlap(1, 2*tccluster.Millisecond, 2, 100*tccluster.Microsecond)),
		tccluster.WithMonitor("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w, err := c.NewWorld(tccluster.DefaultMPIConfig())
	if err != nil {
		t.Fatal(err)
	}
	released := 0
	for r := 0; r < w.Size(); r++ {
		w.Rank(r).Barrier(func(err error) {
			if err != nil {
				t.Errorf("barrier: %v", err)
			}
			released++
		})
	}
	c.RunFor(2 * tccluster.Millisecond)
	if released != w.Size() {
		t.Fatalf("%d of %d ranks left the barrier", released, w.Size())
	}

	resp, err := http.Get("http://" + c.Monitor().Addr() + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters []struct {
			Name  string `json:"name"`
			Link  int    `json:"link"`
			Value uint64 `json:"value"`
		} `json:"counters"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]uint64{}
	for _, ctr := range doc.Counters {
		got[ctr.Name] += ctr.Value
		if ctr.Name == "link.state_changes" && ctr.Link != 1 {
			t.Errorf("state change counted on link %d, only link 1 flapped", ctr.Link)
		}
	}
	if got["mpi.barrier_enter"] != uint64(w.Size()) || got["mpi.barrier_exit"] != uint64(w.Size()) {
		t.Errorf("barrier enter/exit = %d/%d, want %d each",
			got["mpi.barrier_enter"], got["mpi.barrier_exit"], w.Size())
	}
	if got["link.state_changes"] == 0 {
		t.Error("no link.state_changes after a two-flap campaign")
	}
}

// TestMonitorIdleGapSerialMatchesParallel samples every 10µs across a
// 200µs idle gap before the only event. Serially and at 2 workers the
// run must return — a lone active partition facing an unbounded window
// once spun forever computing its next sample — and record the same
// flight-recorder windows, each closed on an exact boundary.
func TestMonitorIdleGapSerialMatchesParallel(t *testing.T) {
	run := func(opts ...tccluster.Option) []tccluster.RecorderWindow {
		t.Helper()
		topo, err := tccluster.Chain(2)
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, tccluster.WithMonitor("", tccluster.MonitorSampleEvery(10*tccluster.Microsecond)))
		c, err := tccluster.New(topo, tccluster.DefaultConfig(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.EngineFor(0).After(200*tccluster.Microsecond, func() {})
		done := make(chan struct{})
		go func() {
			c.Run()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("Run did not return within 30s")
		}
		return c.Monitor().Recorder().Windows()
	}
	serial, par := run(), run(tccluster.WithParallel(2))
	if len(serial) != 20 {
		t.Fatalf("serial run recorded %d windows, want 20", len(serial))
	}
	if len(par) != len(serial) {
		t.Fatalf("parallel run recorded %d windows, serial %d", len(par), len(serial))
	}
	for i := range serial {
		if serial[i].Start != par[i].Start || serial[i].End != par[i].End {
			t.Fatalf("window %d: parallel [%v,%v], serial [%v,%v]",
				i, par[i].Start, par[i].End, serial[i].Start, serial[i].End)
		}
		if i > 0 && serial[i].Duration() != 10*tccluster.Microsecond {
			t.Fatalf("window %d spans %v, want 10us", i, serial[i].Duration())
		}
	}
}
