// Command tcctopo explores TCCluster topologies against the paper's
// architectural constraints: interval routability (§IV.D — contiguous
// address intervals per link, bounded by the northbridge's MMIO
// register pairs), deadlock freedom of the single-VC posted network,
// and the physical trace-length/placement rules of §IV.F.
//
// Usage:
//
//	tcctopo -topo mesh -w 8 -h 8 [-intervals] [-deadlock] [-physical]
//	tcctopo -topo chain -n 64
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/topology"
)

func main() {
	kind := flag.String("topo", "mesh", "topology: chain | ring | mesh | torus | full | hypercube")
	n := flag.Int("n", 8, "node count (chain/ring/full) or dimension (hypercube)")
	w := flag.Int("w", 4, "mesh width")
	h := flag.Int("h", 4, "mesh height")
	showIntervals := flag.Bool("intervals", false, "print each node's address intervals")
	checkDeadlock := flag.Bool("deadlock", true, "run the channel-dependency deadlock check")
	checkPhysical := flag.Bool("physical", true, "check blade-rack trace lengths")
	memPerNodeGB := flag.Int("mem", 8, "GB of DRAM per node for address-space accounting")
	flag.Parse()

	// -n sizes chain, ring and full, and is the hypercube's dimension.
	spec := scenario.TopologySpec{Kind: *kind, Nodes: *n, Width: *w, Height: *h, Dim: *n}
	topo, err := spec.BuildTopology()
	if err != nil {
		fail(err)
	}

	if err := topo.Validate(); err != nil {
		fail(err)
	}

	t := &stats.Table{Title: "topology " + topo.Name(), Columns: []string{"property", "value"}}
	t.AddRow("nodes", fmt.Sprintf("%d", topo.N()))
	t.AddRow("links", fmt.Sprintf("%d", topo.NumLinks()))
	t.AddRow("diameter (hops)", fmt.Sprintf("%d", topo.Diameter()))
	t.AddRow("avg hops", fmt.Sprintf("%.2f", topo.AvgHops()))
	t.AddRow("max address intervals/node", fmt.Sprintf("%d", topo.MaxIntervals()))
	if err := topo.CheckIntervalRoutable(7); err != nil {
		t.AddRow("interval routable (<=7 MMIO pairs)", "NO: "+err.Error())
	} else {
		t.AddRow("interval routable (<=7 MMIO pairs)", "yes")
	}
	if *checkDeadlock {
		ok, err := topo.DeadlockFree()
		if err != nil {
			fail(err)
		}
		t.AddRow("deadlock-free (posted VC)", fmt.Sprintf("%v", ok))
	}
	space := uint64(topo.N()) * uint64(*memPerNodeGB) << 30
	t.AddRow("global address space", fmt.Sprintf("%d GB", space>>30))
	t.AddRow("fits 48-bit (256TB, §IV.D)", fmt.Sprintf("%v", space <= 1<<48))
	if *checkPhysical {
		pm := topology.DefaultPhysicalModel()
		t.AddRow("max trace (blade rack)", fmt.Sprintf("%.1f in (limit %v: %.0f in)",
			pm.MaxLinkLengthInches(topo), pm.Medium, pm.Medium.MaxTraceInches()))
		if err := pm.CheckPhysical(topo); err != nil {
			t.AddRow("physically buildable", "NO: "+err.Error())
		} else {
			t.AddRow("physically buildable", "yes")
		}
	}
	t.Render(os.Stdout)

	if *showIntervals {
		fmt.Println()
		it := &stats.Table{Title: "per-node address intervals (one MMIO base/limit pair each)",
			Columns: []string{"node", "intervals [lo,hi]->port"}}
		for node := 0; node < topo.N(); node++ {
			s := ""
			for i, iv := range topo.Intervals(node) {
				if i > 0 {
					s += "  "
				}
				s += fmt.Sprintf("[%d,%d]->p%d", iv.Lo, iv.Hi, iv.Port)
			}
			it.AddRow(fmt.Sprintf("%d", node), s)
		}
		it.Render(os.Stdout)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tcctopo:", err)
	os.Exit(1)
}
