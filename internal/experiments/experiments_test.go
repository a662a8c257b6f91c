package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/stats"
)

// The acceptance criteria here are the SHAPE claims from DESIGN.md §4:
// who wins, by roughly what factor, where crossovers fall. Absolute
// numbers are recorded in EXPERIMENTS.md.

func TestFig6Shape(t *testing.T) {
	fig, err := Fig6Bandwidth([]int{64, 1024, 65536, 262144})
	if err != nil {
		t.Fatal(err)
	}
	weak, ordered, ib := fig.Series[0], fig.Series[1], fig.Series[2]

	// Weak-ordered sustains ~2700 MB/s, link bound, at every size.
	for _, p := range weak.Points {
		if p.Y < 2300 || p.Y > 3100 {
			t.Errorf("weak @%v = %.0f MB/s, want 2300-3100", p.X, p.Y)
		}
	}
	// Ordered plateaus below weak (paper: ~2000 vs ~2700).
	for _, p := range ordered.Points {
		w, _ := weak.YAt(p.X)
		if p.Y >= w {
			t.Errorf("ordered @%v = %.0f >= weak %.0f", p.X, p.Y, w)
		}
		if p.X >= 1024 && (p.Y < 1500 || p.Y > 2500) {
			t.Errorf("ordered @%v = %.0f MB/s, want ~2000", p.X, p.Y)
		}
	}
	// TCCluster crushes IB at small sizes (paper: 2700 vs 200 at 64B,
	// >10x), and still wins at 64KB.
	w64, _ := weak.YAt(64)
	ib64, _ := ib.YAt(64)
	if w64 < 10*ib64 {
		t.Errorf("64B: TCC %.0f vs IB %.0f — want >10x", w64, ib64)
	}
	w64k, _ := weak.YAt(65536)
	ib64k, _ := ib.YAt(65536)
	if w64k <= ib64k {
		t.Errorf("64KB: TCC %.0f vs IB %.0f — TCC must still win", w64k, ib64k)
	}
}

func TestFig7Shape(t *testing.T) {
	fig, err := Fig7Latency([]int{64, 1024})
	if err != nil {
		t.Fatal(err)
	}
	tcc, ib := fig.Series[0], fig.Series[1]
	l64, _ := tcc.YAt(64)
	// Paper: 227 ns at 64B.
	if l64 < 150 || l64 > 320 {
		t.Errorf("64B half-RTT = %.0f ns, want ~227", l64)
	}
	l1k, _ := tcc.YAt(1024)
	// Paper: below 1 us at 1KB.
	if l1k >= 1000 {
		t.Errorf("1KB half-RTT = %.0f ns, want <1000", l1k)
	}
	ib64, _ := ib.YAt(64)
	// Paper: ~4x advantage over IB.
	if ratio := ib64 / l64; ratio < 3 || ratio > 10 {
		t.Errorf("IB/TCC latency ratio = %.1f, want ~4-6", ratio)
	}
}

func TestHopLatencyShape(t *testing.T) {
	tab, err := HopLatency(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Every adder (rows 2..) under 50 ns.
	for _, row := range tab.Rows[1:] {
		var adder float64
		if _, err := fmtSscan(row[2], &adder); err != nil {
			t.Fatalf("bad adder cell %q", row[2])
		}
		if adder <= 0 || adder >= 50 {
			t.Errorf("hop adder = %v ns, want (0,50)", adder)
		}
	}
}

func TestBaselineComparisonShape(t *testing.T) {
	tab, err := BaselineComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	adv := tab.Rows[4]
	var latAdv float64
	if _, err := fmtSscan(strings.TrimSuffix(adv[1], "x"), &latAdv); err != nil {
		t.Fatal(err)
	}
	if latAdv < 3 {
		t.Errorf("latency advantage %.1fx, want >3x (paper: ~4x + order-of-magnitude bw)", latAdv)
	}
}

func TestCoherencyScalingShape(t *testing.T) {
	tab := CoherencyScaling([]int{2, 8, 64}, 227)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Probe count is n-1; latency grows monotonically; by 64 nodes the
	// coherent write is far costlier than a TCCluster message.
	var prevLat float64
	for i, row := range tab.Rows {
		var probes, lat float64
		fmtSscan(row[1], &probes)
		fmtSscan(row[3], &lat)
		if i > 0 && lat <= prevLat {
			t.Errorf("row %d: latency %.0f did not grow past %.0f", i, lat, prevLat)
		}
		prevLat = lat
	}
	var last float64
	fmtSscan(tab.Rows[2][3], &last)
	if last < 2*227 {
		t.Errorf("64-node coherent write %.0f ns — should dwarf a 227 ns message", last)
	}
}

func TestWCAblationShape(t *testing.T) {
	tab, err := WCAblation(16 << 10)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 weak; last row UC. Monotone degradation with fence
	// frequency, and UC is dramatically slower than WC.
	var weak, fenced, uc float64
	fmtSscan(tab.Rows[0][1], &weak)
	fmtSscan(tab.Rows[len(tab.Rows)-2][1], &fenced) // fence every line
	fmtSscan(tab.Rows[len(tab.Rows)-1][1], &uc)
	if fenced >= weak {
		t.Errorf("fence-per-line %.0f >= weak %.0f", fenced, weak)
	}
	if uc >= fenced/2 {
		t.Errorf("UC %.0f MB/s not dramatically below fenced WC %.0f", uc, fenced)
	}
}

func TestLinkSpeedSweepShape(t *testing.T) {
	tab, err := LinkSpeedSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Achieved bandwidth grows with clock within a width class.
	var prev float64
	for i, row := range tab.Rows {
		var mbs float64
		fmtSscan(row[3], &mbs)
		if i%6 != 0 && mbs <= prev {
			t.Errorf("row %s: bandwidth %.0f did not grow past %.0f", row[0], mbs, prev)
		}
		prev = mbs
	}
}

func TestEndpointScalingShape(t *testing.T) {
	tab, err := EndpointScaling([]int{16, 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows[:2] {
		if row[3] != "true" {
			t.Errorf("%s endpoints did not open: %v", row[0], row)
		}
	}
	last := tab.Rows[len(tab.Rows)-1][1]
	// "Hundreds of endpoints" must fit the default UC window.
	var n float64
	fmtSscan(last, &n)
	if n < 200 {
		t.Errorf("exhaustion at %v endpoints, want hundreds (paper §IV.A)", last)
	}
}

func TestMPICollectivesShape(t *testing.T) {
	tab, err := MPICollectives([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var b2, b4 float64
	fmtSscan(tab.Rows[0][1], &b2)
	fmtSscan(tab.Rows[1][1], &b4)
	if b2 <= 0 || b4 <= b2 {
		t.Errorf("barrier: 2 nodes %.2fus, 4 nodes %.2fus — must grow with log2(n) rounds", b2, b4)
	}
	if b4 > 20 {
		t.Errorf("4-node barrier %.2fus — microsecond-class expected on sub-us links", b4)
	}
}

func TestPGASLatenciesShape(t *testing.T) {
	tab, err := PGASLatencies()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestAddressMapScalingShape(t *testing.T) {
	tab := AddressMapScaling()
	if len(tab.Rows) < 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if strings.HasPrefix(row[0], "mesh") || strings.HasPrefix(row[0], "chain") {
			if row[3] != "true" {
				t.Errorf("%s not interval-routable", row[0])
			}
		}
		if row[0] == "ring-16" && row[4] != "false" {
			t.Errorf("ring-16 not flagged as deadlocking")
		}
		if row[0] == "mesh-64x64" && row[6] != "true" {
			t.Errorf("4096 nodes x 8GB should sit at the 48-bit bound: %v", row)
		}
	}
}

func TestBootTraceContainsSequence(t *testing.T) {
	trace, err := BootTrace()
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []string{"cold-reset", "force-noncoherent", "warm-reset",
		"verify-links", "cpu-msr-init", "exit-car", "load-os", "non-coherent"} {
		if !strings.Contains(trace, step) {
			t.Errorf("boot trace missing %q", step)
		}
	}
}

// fmtSscan parses the leading float of a table cell.
func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscanf(strings.TrimSpace(s), "%f", v)
}

func TestFaultToleranceShape(t *testing.T) {
	tab, err := FaultTolerance()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	get := func(row int) (bw float64, retries float64) {
		fmtSscan(tab.Rows[row][2], &bw)
		fmtSscan(tab.Rows[row][3], &retries)
		return
	}
	bw800, r800 := get(1)
	if r800 != 0 {
		t.Errorf("clean HT800 recorded %v retries", r800)
	}
	// A mildly lossy HT1600 still beats clean HT800...
	bw1600, r1600 := get(2)
	if bw1600 <= bw800 || r1600 == 0 {
		t.Errorf("lossy HT1600 %.0f vs clean HT800 %.0f (retries %v)", bw1600, bw800, r1600)
	}
	// ...but the dirtiest link pays heavily for its retries.
	bw2600, r2600 := get(4)
	if r2600 == 0 {
		t.Error("30%% error rate produced no retries")
	}
	bw2400, _ := get(3)
	if bw2600 >= bw2400 {
		t.Errorf("HT2600@30%% (%.0f) should fall below HT2400@12%% (%.0f)", bw2600, bw2400)
	}
}

func TestFaultRecoveryShape(t *testing.T) {
	tab, err := FaultRecovery()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	get := func(row int) (goodput, stall, retransmits float64) {
		fmtSscan(tab.Rows[row][2], &goodput)
		fmtSscan(tab.Rows[row][3], &stall)
		fmtSscan(tab.Rows[row][4], &retransmits)
		return
	}
	// The no-fault baseline retransmits nothing and stalls no longer
	// than the ack-timeout quantum allows.
	bw0, _, r0 := get(0)
	if r0 != 0 {
		t.Errorf("fault-free run recorded %v retransmissions", r0)
	}
	// Each longer outage costs goodput and stretches the worst stall;
	// recovery is always via retransmission.
	prevStall := 0.0
	prevBW := bw0 + 1
	for row := 1; row < 4; row++ {
		bw, stall, retr := get(row)
		if retr == 0 {
			t.Errorf("row %d: outage produced no retransmissions", row)
		}
		if bw >= prevBW {
			t.Errorf("row %d: goodput %.1f did not drop below %.1f", row, bw, prevBW)
		}
		if stall <= prevStall {
			t.Errorf("row %d: max stall %.1f did not grow past %.1f", row, stall, prevStall)
		}
		prevBW, prevStall = bw, stall
	}
}

func TestMeshTrafficShape(t *testing.T) {
	tab, err := MeshTraffic(8 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	bw := func(row int) float64 {
		var v float64
		fmtSscan(tab.Rows[row][2], &v)
		return v
	}
	neighbor, transpose, uniform, hotspot := bw(0), bw(1), bw(2), bw(3)
	if hotspot >= neighbor {
		t.Errorf("hotspot %.2f >= neighbor %.2f", hotspot, neighbor)
	}
	if transpose > neighbor {
		t.Errorf("transpose %.2f above neighbor %.2f", transpose, neighbor)
	}
	if uniform <= 0 {
		t.Error("uniform produced no bandwidth")
	}
	// Neighbor traffic across 16 nodes should aggregate well above a
	// single link's 2.8 GB/s.
	if neighbor < 5 {
		t.Errorf("neighbor aggregate %.2f GB/s — expected multi-link scaling", neighbor)
	}
}

func TestPollJitterShape(t *testing.T) {
	tab, samples, err := PollJitter(40)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if len(samples) != 40 {
		t.Fatalf("samples = %d", len(samples))
	}
	lo, hi := samples[0], samples[len(samples)-1]
	// The spread is the polling quantum: about one uncached DRAM read
	// (~100 ns), definitely not zero and not several periods.
	if spread := hi - lo; spread < 30 || spread > 250 {
		t.Errorf("poll-grid spread = %.0f ns, want ~one poll period", spread)
	}
	// The floor sits near the unquantized one-way path (~130-200 ns).
	if lo < 100 || lo > 260 {
		t.Errorf("min = %.0f ns", lo)
	}
	// Nearest rank: p0 is the minimum, p100 the maximum, and 40
	// samples put p25 on the tenth.
	if stats.Percentile(samples, 0) != lo || stats.Percentile(samples, 100) != hi || stats.Percentile(samples, 25) != samples[9] {
		t.Errorf("nearest-rank percentiles disagree with the sorted samples %v", samples)
	}
}

func TestAllreduceAblationShape(t *testing.T) {
	tab, err := AllreduceAblation(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Large vectors: the bandwidth-optimal ring wins decisively, and its
	// advantage must GROW with vector size (the latency-vs-bandwidth
	// crossover; at the default 8 nodes the tree still wins the
	// 8-double row, at 4 nodes the ring can edge it out).
	if tab.Rows[3][3] != "ring" {
		t.Errorf("4096-double winner = %s, want ring", tab.Rows[3][3])
	}
	ratio := func(row int) float64 {
		var tree, ring float64
		fmtSscan(tab.Rows[row][1], &tree)
		fmtSscan(tab.Rows[row][2], &ring)
		return tree / ring
	}
	if small, large := ratio(0), ratio(3); large <= small || large < 1.5 {
		t.Errorf("ring advantage did not grow: %.2fx at 8 doubles vs %.2fx at 4096", small, large)
	}
}

func TestWCBufferCountShape(t *testing.T) {
	tab, err := WCBufferCount()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var one, eight float64
	fmtSscan(tab.Rows[0][2], &one)   // HT2600, 1 buffer
	fmtSscan(tab.Rows[3][2], &eight) // HT2600, 8 buffers
	if one >= 0.7*eight {
		t.Errorf("1 WC buffer at HT2600 reached %.0f of %.0f MB/s — buffering should matter", one, eight)
	}
	// At HT800 the slow link hides the buffer count.
	var slow1, slow8 float64
	fmtSscan(tab.Rows[0][1], &slow1)
	fmtSscan(tab.Rows[3][1], &slow8)
	if slow1 < 0.95*slow8 {
		t.Errorf("HT800: 1 buffer %.0f well below 8 buffers %.0f — link should bottleneck both", slow1, slow8)
	}
}

// Determinism: the entire stack — engine, fabric, firmware, harness —
// must produce byte-identical results across runs.
func TestExperimentsAreDeterministic(t *testing.T) {
	render := func() string {
		var sb strings.Builder
		fig, err := Fig7Latency([]int{64, 512})
		if err != nil {
			t.Fatal(err)
		}
		fig.Render(&sb)
		tab, err := HopLatency(3)
		if err != nil {
			t.Fatal(err)
		}
		tab.Render(&sb)
		tab, err = FaultTolerance()
		if err != nil {
			t.Fatal(err)
		}
		tab.Render(&sb)
		return sb.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("two identical runs diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

func TestLatencyBreakdownShape(t *testing.T) {
	tab, err := LatencyBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var parts, total float64
	for _, row := range tab.Rows[:5] {
		var v float64
		fmtSscan(row[1], &v)
		if v <= 0 {
			t.Errorf("stage %q = %v ns", row[0], v)
		}
		parts += v
	}
	fmtSscan(tab.Rows[5][1], &total)
	if diff := parts - total; diff > 1 || diff < -1 {
		t.Errorf("stages sum to %.1f, total says %.1f", parts, total)
	}
	// The floor must sit at/below the Fig.7 mean (~222ns) and within its band.
	if total < 150 || total > 280 {
		t.Errorf("breakdown total = %.1f ns, want ~222", total)
	}
}

func TestSupernodeTransitShape(t *testing.T) {
	tab, err := SupernodeTransit()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Socket 3 owns the external link (port allocation starts at the far
	// socket); each step away adds one internal coherent hop, a constant
	// latency adder. Bandwidth stays external-link bound everywhere.
	var lats [4]float64
	for s := 0; s < 4; s++ {
		fmtSscan(tab.Rows[s][1], &lats[s])
		var bw float64
		fmtSscan(tab.Rows[s][2], &bw)
		if bw < 2300 || bw > 3200 {
			t.Errorf("socket %d stream = %.0f MB/s, want external-link bound ~2850", s, bw)
		}
	}
	for s := 0; s < 3; s++ {
		adder := lats[s] - lats[s+1]
		if adder <= 0 || adder >= 50 {
			t.Errorf("internal hop adder socket %d->%d = %.0f ns, want (0,50)", s, s+1, adder)
		}
	}
}
