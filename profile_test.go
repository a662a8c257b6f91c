// End-to-end tests of the simulation profiler: WithProfile must
// observe without perturbing — profiled runs reproduce unprofiled
// event counts, virtual time and link counters exactly, on every
// executor — while still attributing the full packet lifecycle into
// the paper-style latency budget, and serving it live over /profile
// race-free against the sim goroutine.
package tccluster_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	tccluster "repro"
)

// TestProfileDoesNotPerturbDeterminism is the profiler's determinism
// gate: for every example-shaped workload, attaching the profiler —
// serially and on the partitioned executor — must leave the event
// count, final virtual time and every per-link counter exactly as the
// unprofiled serial run produced them. The profiler only loads clocks
// and stores histogram words; it schedules nothing.
func TestProfileDoesNotPerturbDeterminism(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(*testing.T, ...tccluster.Option) queueFingerprint
	}{
		{"quickstart-chain2", quickstartRun},
		{"allreduce-chain4", allreduceRun},
		{"halo-chain3", haloRun},
		{"pgas-chain4", pgasRun},
		{"cluster16-mesh4x4", meshRun},
		{"failures-lossy-chain2", lossyRun},
		{"fault-recovery-chain4", faultRecoveryRun},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			plain := sc.run(t)
			variants := []struct {
				name string
				opts []tccluster.Option
			}{
				{"profiled-serial", []tccluster.Option{tccluster.WithProfile()}},
				{"profiled-parallel2", []tccluster.Option{
					tccluster.WithProfile(), tccluster.WithParallel(2)}},
			}
			for _, v := range variants {
				got := sc.run(t, v.opts...)
				if got.fired != plain.fired {
					t.Errorf("%s: event count diverged: plain %d, profiled %d",
						v.name, plain.fired, got.fired)
				}
				if got.now != plain.now {
					t.Errorf("%s: final virtual time diverged: plain %v, profiled %v",
						v.name, plain.now, got.now)
				}
				if !reflect.DeepEqual(got.links, plain.links) {
					t.Errorf("%s: per-link counters diverged:\nplain:    %+v\nprofiled: %+v",
						v.name, plain.links, got.links)
				}
			}
		})
	}
}

// profiledAllreduce runs a profiled allreduce over a chain and returns
// the cluster's summary.
func profiledAllreduce(t *testing.T, nodes int, opts ...tccluster.Option) *tccluster.ProfileSummary {
	t.Helper()
	topo, err := tccluster.Chain(nodes)
	mustOK(t, err)
	opts = append([]tccluster.Option{tccluster.WithProfile()}, opts...)
	c, err := tccluster.New(topo, tccluster.DefaultConfig(), opts...)
	mustOK(t, err)
	w, err := c.NewWorld(tccluster.DefaultMPIConfig())
	mustOK(t, err)
	var pending atomic.Int64
	pending.Store(int64(nodes))
	vec := make([]float64, 64)
	for rk := 0; rk < nodes; rk++ {
		w.Rank(rk).Allreduce(vec, tccluster.Sum, func(_ []float64, err error) {
			mustOK(t, err)
			pending.Add(-1)
		})
	}
	c.Run()
	if pending.Load() != 0 {
		t.Fatalf("allreduce: %d ranks incomplete", pending.Load())
	}
	s := c.Profile()
	if s == nil {
		t.Fatal("Profile() returned nil on a WithProfile cluster")
	}
	return s
}

// TestProfileBudgetDeterministicAcrossExecutors pins the virtual-time
// half of the summary: a profiled workload attributes identical phase
// counts, totals and quantiles whether it ran serially or partitioned.
// Only the PDES wall-clock accounting may differ between executors.
func TestProfileBudgetDeterministicAcrossExecutors(t *testing.T) {
	serial := profiledAllreduce(t, 4)
	par := profiledAllreduce(t, 4, tccluster.WithParallel(2))
	if !reflect.DeepEqual(serial.Budget, par.Budget) {
		t.Errorf("budget diverged:\nserial:   %+v\nparallel: %+v", serial.Budget, par.Budget)
	}
	if !reflect.DeepEqual(serial.Links, par.Links) {
		t.Errorf("per-link phases diverged:\nserial:   %+v\nparallel: %+v", serial.Links, par.Links)
	}
	if !reflect.DeepEqual(serial.Nodes, par.Nodes) {
		t.Errorf("per-node phases diverged:\nserial:   %+v\nparallel: %+v", serial.Nodes, par.Nodes)
	}
	if !reflect.DeepEqual(serial.CriticalPath, par.CriticalPath) {
		t.Errorf("critical path diverged:\nserial:   %+v\nparallel: %+v",
			serial.CriticalPath, par.CriticalPath)
	}
	if serial.PDES != nil {
		t.Errorf("serial run reported PDES accounting: %+v", serial.PDES)
	}
	if par.PDES == nil {
		t.Errorf("parallel run reported no PDES accounting")
	}
}

// TestProfiledAllreduceChain16EmitsBudget is the acceptance workload:
// a profiled parallel allreduce on chain16 must attribute every
// pipeline stage a packet crosses — link serialization and flight,
// crossbar, routing hops, memory service, store issue, WC flush,
// receiver polling — rank the bottleneck hop, and account per-partition
// barrier stall and imbalance.
func TestProfiledAllreduceChain16EmitsBudget(t *testing.T) {
	s := profiledAllreduce(t, 16, tccluster.WithParallel(4))
	phases := map[string]bool{}
	for _, p := range s.Budget {
		if p.Count == 0 {
			t.Errorf("budget phase %s present with zero count", p.Phase)
		}
		if p.TotalPS == 0 && p.Phase != "link.queue" {
			t.Errorf("budget phase %s attributed zero time over %d observations", p.Phase, p.Count)
		}
		phases[p.Phase] = true
	}
	for _, want := range []string{
		"link.queue", "link.ser", "link.flight",
		"nb.xbar", "nb.hop", "mem.service",
		"cpu.issue", "cpu.wcflush", "msg.poll",
	} {
		if !phases[want] {
			t.Errorf("budget missing phase %s (got %v)", want, s.Budget)
		}
	}
	if len(s.Links) != 15 {
		t.Errorf("expected 15 profiled links on chain16, got %d", len(s.Links))
	}
	if len(s.CriticalPath) == 0 {
		t.Errorf("critical-path ranking is empty")
	} else if s.CriticalPath[0].SharePct <= 0 || s.CriticalPath[0].Dominant == "" {
		t.Errorf("critical hop lacks share/dominant phase: %+v", s.CriticalPath[0])
	}
	p := s.PDES
	if p == nil {
		t.Fatal("parallel profiled run reported no PDES accounting")
	}
	if len(p.Partitions) != 4 {
		t.Fatalf("expected 4 partition summaries, got %d", len(p.Partitions))
	}
	if p.Windows == 0 || p.Imbalance < 1 || p.Occupancy <= 0 {
		t.Errorf("implausible PDES accounting: windows %d imbalance %.2f occupancy %.2f",
			p.Windows, p.Imbalance, p.Occupancy)
	}
	var events uint64
	for _, pt := range p.Partitions {
		events += pt.Events
		if pt.BarrierWaitMS < 0 {
			t.Errorf("partition %d: negative barrier wait %.3fms", pt.Partition, pt.BarrierWaitMS)
		}
	}
	if events == 0 {
		t.Errorf("PDES accounting fired zero events across partitions")
	}
	if len(p.MailboxPosts) != 4 {
		t.Errorf("mailbox traffic matrix is %dx?, want 4x4", len(p.MailboxPosts))
	}
}

// TestProfileEndpointScrapeMidRun scrapes /profile (JSON) and /metrics
// (Prometheus) while the simulation is executing on another goroutine:
// the snapshot path must be race-free (this test runs under -race in
// CI) and must not perturb the run.
func TestProfileEndpointScrapeMidRun(t *testing.T) {
	topo, err := tccluster.Chain(4)
	mustOK(t, err)
	c, err := tccluster.New(topo, tccluster.DefaultConfig(),
		tccluster.WithProfile(),
		tccluster.WithMonitor("127.0.0.1:0"))
	mustOK(t, err)
	defer c.Close()
	addr := c.Monitor().Addr()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	scrapeErrs := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := &http.Client{Timeout: 5 * time.Second}
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/profile", "/metrics"} {
				resp, err := client.Get("http://" + addr + path)
				if err != nil {
					select {
					case scrapeErrs <- err:
					default:
					}
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					continue
				}
				if path == "/profile" {
					var s tccluster.ProfileSummary
					if err := json.Unmarshal(body, &s); err != nil {
						select {
						case scrapeErrs <- err:
						default:
						}
						return
					}
				} else if !strings.Contains(string(body), "tcc_prof_") {
					select {
					case scrapeErrs <- fmt.Errorf("prometheus scrape lacks tcc_prof_ series: %q", body):
					default:
					}
					return
				}
			}
		}
	}()

	w, err := c.NewWorld(tccluster.DefaultMPIConfig())
	mustOK(t, err)
	vec := make([]float64, 64)
	for round := 0; round < 20; round++ {
		var pending atomic.Int64
		pending.Store(4)
		for rk := 0; rk < 4; rk++ {
			w.Rank(rk).Allreduce(vec, tccluster.Sum, func(_ []float64, err error) {
				mustOK(t, err)
				pending.Add(-1)
			})
		}
		c.Run()
		if pending.Load() != 0 {
			t.Fatalf("round %d: %d ranks incomplete", round, pending.Load())
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-scrapeErrs:
		t.Fatalf("scraping /profile mid-run: %v", err)
	default:
	}

	// After the run the served document must match the cluster's own.
	resp, err := http.Get("http://" + addr + "/profile")
	mustOK(t, err)
	defer resp.Body.Close()
	var served tccluster.ProfileSummary
	mustOK(t, json.NewDecoder(resp.Body).Decode(&served))
	if len(served.Budget) == 0 {
		t.Fatal("/profile served an empty budget after a profiled run")
	}
	local := c.Profile()
	if !reflect.DeepEqual(served.Budget, local.Budget) {
		t.Errorf("/profile budget differs from Cluster.Profile():\nserved: %+v\nlocal:  %+v",
			served.Budget, local.Budget)
	}
}
