// Command tccboot boots a simulated TCCluster and prints the firmware
// consoles: the coreboot-style sequence of §V — coherent enumeration,
// the debug-register force to non-coherent, the synchronized warm
// reset, northbridge and MTRR programming — followed by link states and
// a smoke-test transfer.
//
// Usage:
//
//	tccboot [-nodes N] [-sockets S] [-speed MHZ] [-width W]
package main

import (
	"flag"
	"fmt"
	"os"

	tccluster "repro"
	"repro/internal/ht"
)

func main() {
	nodes := flag.Int("nodes", 2, "number of supernodes (chain topology)")
	sockets := flag.Int("sockets", 1, "sockets per supernode")
	speed := flag.Int("speed", 800, "TCCluster link clock in MHz (200..2600)")
	width := flag.Int("width", 16, "TCCluster link width in lanes (8 or 16)")
	regs := flag.Bool("regs", false, "dump each socket's northbridge register images (the Fig. 3 address maps as BKDG words)")
	flag.Parse()

	topo, err := tccluster.Chain(*nodes)
	if err != nil {
		fail(err)
	}
	cfg := tccluster.DefaultConfig()
	cfg.SocketsPerNode = *sockets
	cfg.LinkSpeed = ht.Speed(*speed)
	cfg.LinkWidth = *width

	c, err := tccluster.New(topo, cfg)
	if err != nil {
		fail(err)
	}

	for _, n := range c.Nodes() {
		fmt.Println(n.BootLog())
	}
	for i, l := range c.ExternalLinks() {
		fmt.Printf("TCCluster link %d: %v, %v x%d (%.1f Gbit/s/lane), trained %d times\n",
			i, l.Type(), l.Speed(), l.Width(), l.Speed().GbitPerLane(), l.Trainings())
	}

	if *regs {
		fmt.Println("\n== northbridge register images (the per-node address maps of Fig. 3) ==")
		for _, n := range c.Nodes() {
			for si, p := range n.Machine().Procs {
				fmt.Printf("--- node%d socket%d ---\n%s", n.Index(), si, p.NB.DumpRegisters())
			}
		}
	}

	// Smoke test: first node stores into the last node's memory.
	src, dst := c.Node(0), c.Node(c.N()-1)
	payload := []byte("TCCluster boot smoke test")
	for len(payload)%8 != 0 {
		payload = append(payload, '.')
	}
	start := c.Now()
	var landed tccluster.Time
	dst.Machine().Procs[0].NB.WatchWrites(0, ^uint64(0), func(uint64, int) { landed = c.Now() })
	src.Core().StoreBlock(dst.MemBase()+8<<20, payload, func(err error) {
		if err != nil {
			fail(err)
		}
		src.Core().Sfence(func() {})
	})
	c.Run()
	got, err := dst.PeekMem(8<<20, len(payload))
	if err != nil {
		fail(err)
	}
	fmt.Printf("\nsmoke test: node0 -> node%d (%d hops): %q landed after %v\n",
		dst.Index(), c.N()-1, got, landed-start)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tccboot:", err)
	os.Exit(1)
}
