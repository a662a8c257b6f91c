package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/prof"
	"repro/internal/sim"
)

func testStatus() *monitor.Status {
	return &monitor.Status{
		Status:     "degraded",
		VirtualPS:  2_000_000_000, // 2 ms
		Samples:    20,
		IntervalPS: 100_000_000,
		Counters: []monitor.MetricJSON{
			{Name: "nb.pkts_forwarded", Node: 1, Value: 512},
			{Name: "nb.pkts_to_dram", Node: 1, Value: 300},
			{Name: "nb.master_aborts", Node: 1, Value: 2},
			{Name: "nb.dead_link_drops", Node: 1, Value: 7},
			{Name: "msg.ring_full", Node: 1, Value: 4},
			{Name: "link.state_changes", Link: 0, Value: 5},
			{Name: "mpi.barrier_enter", Node: 0, Value: 3},
			{Name: "mpi.barrier_enter", Node: 1, Value: 3},
			{Name: "mpi.barrier_exit", Node: 0, Value: 2},
			{Name: "mpi.barrier_exit", Node: 1, Value: 2},
			{Name: "mpi.rendezvous_start", Node: 1, Value: 3},
			{Name: "serve.requests", Value: 24000},
			{Name: "serve.completed", Value: 23940},
			{Name: "serve.in_slo", Value: 23400},
			{Name: "serve.timeouts", Value: 40},
			{Name: "serve.shed", Value: 20},
			{Name: "serve.dead_marks", Value: 3},
		},
		Histograms: []monitor.HistJSON{
			{Name: "prof.link.queue_ps", Link: 0, Count: 100, P99: 250_000},
			{Name: "serve.latency_ps", Count: 23940,
				P50: 850_000, P99: 2_100_000, P999: 2_600_000},
		},
		Window: &monitor.WindowJSON{
			Index:   19,
			StartPS: 1_900_000_000,
			EndPS:   2_000_000_000, // 100 us window
			Counters: []monitor.MetricJSON{
				{Name: "port.pkts_sent", Link: 0, Value: 40},
				{Name: "port.bytes_sent", Link: 0, Value: 32_000},
				{Name: "port.credit_stalls", Link: 0, Value: 5},
			},
			Links: []core.LinkStatus{
				{ID: 0, State: "active", Type: "ncHT", Width: 16, SpeedMHz: 800,
					Bandwidth: 3.2e9},
			},
		},
		Alerts: []monitor.Alert{
			{Rule: "dead-link", Message: "link 1: 12 send attempts, no deliveries",
				RaisedAt: 1_500_000_000},
		},
		AlertsTotal: 2,
	}
}

func TestRenderFullFrame(t *testing.T) {
	out := render(testStatus())
	for _, want := range []string{
		"tcctop",
		"DEGRADED",
		"samples 20",
		"LINK  STATE",
		"active",
		"250ns",          // p99 of 250000 ps
		"      5  250ns", // five flaps on link 0
		"NODE  FWD",
		"1     512      300      2       7         4\n", // ring-full 4
		"MPI   phase",
		"barrier (2 ranks inside)",
		"rendezvous 3",
		"SERVE requests 24000",
		"timeouts 40",
		"p50 850.0ns",
		"p99 2.10us",
		" 97.5%", // goodput: in_slo over requests
		"ALERTS (1 active, 2 total)",
		"dead-link",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	// Utilization: 32000 bytes over 100 us against 3.2 GB/s per direction
	// = 32000 / (3.2e9 * 2 * 1e-4) = 5%.
	if !strings.Contains(out, " 5%") {
		t.Errorf("frame missing 5%% link utilization:\n%s", out)
	}
}

func TestRenderEmptyStatus(t *testing.T) {
	out := render(&monitor.Status{Status: "ok"})
	if !strings.Contains(out, "no sampling window yet") {
		t.Errorf("empty status frame missing placeholder:\n%s", out)
	}
	if !strings.Contains(out, "ALERTS: none") {
		t.Errorf("empty status frame missing alert line:\n%s", out)
	}
}

func TestBar(t *testing.T) {
	cases := map[float64]string{
		0:    "[----------]",
		0.5:  "[#####-----]",
		1:    "[##########]",
		1.7:  "[##########]", // clamped
		-0.2: "[----------]", // clamped
	}
	for frac, want := range cases {
		if got := bar(frac, 10); got != want {
			t.Errorf("bar(%v) = %q, want %q", frac, got, want)
		}
	}
}

func TestRenderProfilePanel(t *testing.T) {
	s := &prof.Summary{
		Budget: []prof.PhaseStats{
			{Phase: "link.ser", Count: 200, TotalPS: 4_000_000, MeanPS: 20_000, P99PS: 33_000},
			{Phase: "mem.service", Count: 900, TotalPS: 12_000_000, MeanPS: 13_333, P99PS: 65_000},
		},
		CriticalPath: []prof.CriticalHop{
			{Link: 3, TotalPS: 4_000_000, SharePct: 62.5, Dominant: "link.ser"},
		},
		PDES: &sim.ParallelSummary{
			Windows:   40,
			Occupancy: 0.81,
			Imbalance: 1.2,
			Partitions: []sim.PartitionSummary{
				{Partition: 0, Events: 1000, BusyMS: 4.5, BarrierWaitMS: 0.3},
				{Partition: 1, Events: 800, BusyMS: 3.6, BarrierWaitMS: 1.2},
			},
		},
	}
	out := renderProfile(s)
	for _, want := range []string{
		"PROFILE",
		"link.ser",
		"mem.service",
		"critical link 3 (62.5% of link time, dominant link.ser)",
		"PDES     windows 40   occupancy 0.81   imbalance 1.20",
		"part 1",
		"barrier",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("profile panel missing %q:\n%s", want, out)
		}
	}
	if renderProfile(nil) != "" {
		t.Errorf("nil summary should render nothing")
	}
}
