// Command tcctop is a live terminal dashboard over a running cluster's
// monitor endpoint (tccluster.WithMonitor): per-link utilization and
// stall rates, per-node routing health, MPI phase, active watchdog
// alerts and — when the cluster was built with WithProfile — the
// profiler's live latency budget and PDES partition accounting,
// refreshed in place like top(1).
//
// Usage:
//
//	tcctop -addr 127.0.0.1:9120            # poll until interrupted
//	tcctop -addr 127.0.0.1:9120 -once      # print a single frame
//	tcctop -addr 127.0.0.1:9120 -interval 500ms -n 20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/monitor"
	"repro/internal/prof"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9120", "monitor endpoint host:port")
	interval := flag.Duration("interval", time.Second, "poll interval")
	frames := flag.Int("n", 0, "number of frames to render (0 = until interrupted)")
	once := flag.Bool("once", false, "render a single frame and exit")
	flag.Parse()

	if *once {
		*frames = 1
	}
	client := &http.Client{Timeout: 5 * time.Second}
	url := "http://" + *addr + "/metrics.json"
	for i := 0; *frames == 0 || i < *frames; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		st, err := fetch(client, url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcctop: %v\n", err)
			os.Exit(1)
		}
		// The profile panel is optional: clusters built without
		// WithProfile serve 404 here and the panel is simply absent.
		ps, _ := fetchProfile(client, "http://"+*addr+"/profile")
		if !*once {
			fmt.Print("\x1b[2J\x1b[H") // clear and home: refresh in place
		}
		fmt.Print(render(st))
		fmt.Print(renderProfile(ps))
	}
}

func fetch(c *http.Client, url string) (*monitor.Status, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st monitor.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", url, err)
	}
	return &st, nil
}

func fetchProfile(c *http.Client, url string) (*prof.Summary, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	var s prof.Summary
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", url, err)
	}
	return &s, nil
}

// render lays out one full dashboard frame. It is a pure function of
// the status document so tests can pin the layout.
func render(st *monitor.Status) string {
	var b strings.Builder
	virt := time.Duration(st.VirtualPS) * time.Nanosecond / 1000
	fmt.Fprintf(&b, "tcctop — TCCluster live dashboard   status %s   vtime %v   samples %d   alerts %d\n\n",
		strings.ToUpper(st.Status), virt, st.Samples, len(st.Alerts))

	renderLinks(&b, st)
	renderNodes(&b, st)
	renderMPI(&b, st)
	renderServe(&b, st)
	renderAlerts(&b, st)
	return b.String()
}

// renderServe lays out the serving panel: live request totals, the SLO
// goodput, tail quantiles and failure detection, straight off the
// service's serve.* series. Absent when no service is deployed.
func renderServe(b *strings.Builder, st *monitor.Status) {
	var lat *monitor.HistJSON
	for i := range st.Histograms {
		if st.Histograms[i].Name == "serve.latency_ps" {
			lat = &st.Histograms[i]
		}
	}
	if lat == nil {
		return
	}
	ctr := func(name string) uint64 { return counterTotal(st.Counters, name, nil) }
	requests := ctr("serve.requests")
	goodput := 0.0
	if requests > 0 {
		goodput = 100 * float64(ctr("serve.in_slo")) / float64(requests)
	}
	fmt.Fprintf(b, "SERVE requests %-10d completed %-10d shed %-7d timeouts %-6d dead %d\n",
		requests, ctr("serve.completed"), ctr("serve.shed"), ctr("serve.timeouts"), ctr("serve.dead_marks"))
	fmt.Fprintf(b, "      goodput %s %5.1f%%   p50 %s   p99 %s   p999 %s\n\n",
		bar(goodput/100, 10), goodput, fmtPS(lat.P50), fmtPS(lat.P99), fmtPS(lat.P999))
}

// counterTotal sums counters matching name; pick filters by dimension.
func counterTotal(cs []monitor.MetricJSON, name string, pick func(monitor.MetricJSON) bool) uint64 {
	var n uint64
	for _, c := range cs {
		if c.Name == name && (pick == nil || pick(c)) {
			n += c.Value
		}
	}
	return n
}

func onLink(id int) func(monitor.MetricJSON) bool {
	return func(c monitor.MetricJSON) bool { return c.Link == id }
}

func onNode(id int) func(monitor.MetricJSON) bool {
	return func(c monitor.MetricJSON) bool { return c.Node == id }
}

func renderLinks(b *strings.Builder, st *monitor.Status) {
	if st.Window == nil || len(st.Window.Links) == 0 {
		fmt.Fprintf(b, "LINKS: no sampling window yet\n\n")
		return
	}
	w := st.Window
	durPS := w.EndPS - w.StartPS
	fmt.Fprintf(b, "LINK  STATE         UTIL              TX/win  STALL/win  ABORT/win  FLAPS  P99 QUEUE\n")
	for _, l := range w.Links {
		tx := counterTotal(w.Counters, "port.pkts_sent", onLink(l.ID))
		bytes := counterTotal(w.Counters, "port.bytes_sent", onLink(l.ID))
		stalls := counterTotal(w.Counters, "port.credit_stalls", onLink(l.ID))
		aborted := counterTotal(w.Counters, "port.aborted_pkts", onLink(l.ID))
		flaps := counterTotal(st.Counters, "link.state_changes", onLink(l.ID))
		util := 0.0
		if l.Bandwidth > 0 && durPS > 0 {
			secs := float64(durPS) / 1e12
			// Two directions share the counter sum; capacity is per
			// direction, so normalize against both.
			util = float64(bytes) / (l.Bandwidth * 2 * secs)
		}
		p99 := "-" // tx-queue wait, from the profiler (WithProfile)
		for _, h := range st.Histograms {
			if h.Name == "prof.link.queue_ps" && h.Link == l.ID && h.Count > 0 {
				p99 = fmt.Sprintf("%.0fns", h.P99/1000)
			}
		}
		fmt.Fprintf(b, "%-5d %-13s %s %4.0f%%  %6d  %9d  %9d  %5d  %s\n",
			l.ID, l.State, bar(util, 10), util*100, tx, stalls, aborted, flaps, p99)
	}
	fmt.Fprintln(b)
}

func renderNodes(b *strings.Builder, st *monitor.Status) {
	maxNode := -1
	for _, c := range st.Counters {
		if strings.HasPrefix(c.Name, "nb.") && c.Node > maxNode {
			maxNode = c.Node
		}
	}
	if maxNode < 0 {
		return
	}
	fmt.Fprintf(b, "NODE  FWD      TO-DRAM  ABORTS  DEADDROP  RINGFULL\n")
	for n := 0; n <= maxNode; n++ {
		fmt.Fprintf(b, "%-5d %-8d %-8d %-7d %-9d %d\n", n,
			counterTotal(st.Counters, "nb.pkts_forwarded", onNode(n)),
			counterTotal(st.Counters, "nb.pkts_to_dram", onNode(n)),
			counterTotal(st.Counters, "nb.master_aborts", onNode(n)),
			counterTotal(st.Counters, "nb.dead_link_drops", onNode(n)),
			counterTotal(st.Counters, "msg.ring_full", onNode(n)))
	}
	fmt.Fprintln(b)
}

func renderMPI(b *strings.Builder, st *monitor.Status) {
	enter := counterTotal(st.Counters, "mpi.barrier_enter", nil)
	exit := counterTotal(st.Counters, "mpi.barrier_exit", nil)
	rndv := counterTotal(st.Counters, "mpi.rendezvous_start", nil)
	if enter == 0 && rndv == 0 {
		return
	}
	phase := "compute"
	if enter > exit {
		phase = fmt.Sprintf("barrier (%d ranks inside)", enter-exit)
	}
	fmt.Fprintf(b, "MPI   phase %-28s barriers %d   rendezvous %d\n\n",
		phase, exit, rndv)
}

func renderAlerts(b *strings.Builder, st *monitor.Status) {
	if len(st.Alerts) == 0 {
		fmt.Fprintf(b, "ALERTS: none (total raised %d)\n", st.AlertsTotal)
		return
	}
	fmt.Fprintf(b, "ALERTS (%d active, %d total)\n", len(st.Alerts), st.AlertsTotal)
	for _, a := range st.Alerts {
		fmt.Fprintf(b, " !! [%s] %s (since %dps)\n", a.Rule, a.Message, int64(a.RaisedAt))
	}
}

// bar renders a fixed-width utilization meter.
func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	fill := int(frac*float64(width) + 0.5)
	return "[" + strings.Repeat("#", fill) + strings.Repeat("-", width-fill) + "]"
}

// renderProfile lays out the profiler panel: the cluster-wide latency
// budget ranked by attributed time, the critical link, and — for
// parallel runs — per-partition balance. Nil (profiling disabled or
// endpoint unreachable) renders nothing.
func renderProfile(s *prof.Summary) string {
	if s == nil || len(s.Budget) == 0 {
		return ""
	}
	var b strings.Builder
	var total uint64
	for _, p := range s.Budget {
		total += p.TotalPS
	}
	fmt.Fprintf(&b, "PROFILE  phase          count       mean        p99   share\n")
	for _, p := range s.Budget {
		share := 0.0
		if total > 0 {
			share = 100 * float64(p.TotalPS) / float64(total)
		}
		fmt.Fprintf(&b, "         %-12s %7d %10s %10s %6.1f%% %s\n",
			p.Phase, p.Count, fmtPS(p.MeanPS), fmtPS(p.P99PS), share, bar(share/100, 10))
	}
	if len(s.CriticalPath) > 0 {
		h := s.CriticalPath[0]
		fmt.Fprintf(&b, "         critical link %d (%.1f%% of link time, dominant %s)\n",
			h.Link, h.SharePct, h.Dominant)
	}
	if p := s.PDES; p != nil && len(p.Partitions) > 0 {
		fmt.Fprintf(&b, "PDES     windows %d   occupancy %.2f   imbalance %.2f\n",
			p.Windows, p.Occupancy, p.Imbalance)
		fmt.Fprintf(&b, "         cut %d links, weight %.3f\n", p.CutLinks, p.CutWeight)
		fmt.Fprintf(&b, "         flips %-8d wide %-8d mean width %s\n",
			p.DirtyFlips, p.WideWindows, fmtPS(p.MeanWindowNs*1e3))
		for _, pt := range p.Partitions {
			fmt.Fprintf(&b, "         part %-3d events %-10d busy %8.1fms  barrier %8.1fms\n",
				pt.Partition, pt.Events, pt.BusyMS, pt.BarrierWaitMS)
		}
	}
	return b.String()
}

// fmtPS renders a picosecond quantity with an adaptive unit.
func fmtPS(ps float64) string {
	switch {
	case ps >= 1e6:
		return fmt.Sprintf("%.2fus", ps/1e6)
	case ps >= 1e3:
		return fmt.Sprintf("%.1fns", ps/1e3)
	default:
		return fmt.Sprintf("%.0fps", ps)
	}
}
