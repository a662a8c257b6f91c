package firmware

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ht"
	"repro/internal/nb"
	"repro/internal/sim"
	"repro/internal/southbridge"
)

// flashRig is one northbridge with a flash device behind its
// southbridge link and the CAR phase's temporary decode of the flash
// window in place.
func flashRig(t *testing.T, image []byte) (*sim.Engine, *nb.Northbridge) {
	t.Helper()
	eng := sim.NewEngine()
	n := nb.New(eng, "bsp", memPerNode, nb.DefaultParams())
	sb := ht.NewLink(eng, ht.DefaultLinkConfig(ht.ClassProcessor, ht.ClassIODevice))
	if err := n.AttachLink(1, sb.A()); err != nil {
		t.Fatal(err)
	}
	flash, err := southbridge.New(eng, image, southbridge.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	flash.AttachTo(sb.B())
	sb.ColdReset()
	eng.Run()
	if err := n.SetMMIORange(nb.NumMMIORanges-1, nb.MMIORange{
		Base:    southbridge.ROMBase,
		Limit:   southbridge.ROMBase + southbridge.ROMWindow - 1,
		DstNode: n.NodeID(), DstLink: 1, RE: true, WE: true,
	}); err != nil {
		t.Fatal(err)
	}
	return eng, n
}

// TestFlashLineReadZeroAllocs pins the CAR fetch's inner loop: one
// 64-byte flash line read — NB remote CPURead, the request over the
// southbridge link, the flash access event, the read response back
// through the matching table — allocates nothing once warm.
func TestFlashLineReadZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	image := make([]byte, 4096)
	for i := range image {
		image[i] = byte(i*7 + 1)
	}
	eng, n := flashRig(t, image)
	buf := make([]byte, 64)
	off, reads := 0, 0
	var rerr error
	cb := func(_ []byte, err error) {
		reads++
		if err != nil {
			rerr = err
		}
	}
	readLine := func() {
		n.CPURead(southbridge.ROMBase+uint64(off), buf, cb)
		eng.Run()
		off = (off + 64) % len(image)
	}
	for i := 0; i < 64; i++ { // warm pools, records and the event arena
		readLine()
	}
	if allocs := testing.AllocsPerRun(300, readLine); allocs != 0 {
		t.Fatalf("flash line read allocates %.1f objects, want 0", allocs)
	}
	if rerr != nil || reads != 64+301 {
		t.Fatalf("%d reads completed (err %v), want %d", reads, rerr, 64+301)
	}
	want := image[(off+len(image)-64)%len(image):][:64]
	if string(buf) != string(want) {
		t.Fatalf("last line read %x, want %x", buf[:8], want[:8])
	}
}

// TestCARFetchRecyclesRequests shows the flash terminates the BSP's
// pooled read requests: repeated CAR fetches draw every request from
// the pool's free list, so its fresh-allocation count stays flat.
func TestCARFetchRecyclesRequests(t *testing.T) {
	_, machines, _ := buildPrototype(t)
	m := machines[0]
	if err := m.PhaseCARFetch(4096); err != nil {
		t.Fatal(err)
	}
	pool := m.Procs[m.BSP].NB.Pool()
	gets0, news0 := pool.Stats()
	for i := 0; i < 3; i++ {
		if err := m.PhaseCARFetch(4096); err != nil {
			t.Fatal(err)
		}
	}
	gets, news := pool.Stats()
	if gets-gets0 != 3*4096/64 {
		t.Fatalf("%d pool gets over three fetches, want %d", gets-gets0, 3*4096/64)
	}
	if news != news0 {
		t.Fatalf("pool allocated %d fresh packets across repeated fetches, want 0", news-news0)
	}
}

// TestCARFetchPastImageReadsZeros fetches twice the 4 KB image: the
// flash window reads zeros past it, and the fetch checks those too.
func TestCARFetchPastImageReadsZeros(t *testing.T) {
	_, machines, _ := buildPrototype(t)
	if err := machines[0].PhaseCARFetch(8192); err != nil {
		t.Fatal(err)
	}
}

// coveredTiling is the tiling check BootConfig.Validate replaced: count
// every node's covering routes in an n-int slice. It is kept as the
// oracle for the allocation-free segment walk.
func coveredTiling(c *BootConfig) error {
	covered := make([]int, c.NumNodes)
	for _, r := range c.RemoteRoutes {
		if r.LoNode > r.HiNode || r.LoNode < 0 || r.HiNode >= c.NumNodes {
			return fmt.Errorf("firmware: remote route [%d,%d] out of range", r.LoNode, r.HiNode)
		}
		for n := r.LoNode; n <= r.HiNode; n++ {
			covered[n]++
		}
	}
	for n := 0; n < c.NumNodes; n++ {
		if n == c.Rank {
			if covered[n] != 0 {
				return fmt.Errorf("firmware: remote route covers own rank %d", n)
			}
			continue
		}
		if covered[n] == 0 {
			return fmt.Errorf("firmware: node %d unreachable (address-space hole)", n)
		}
		if covered[n] > 1 {
			return fmt.Errorf("firmware: node %d covered by %d routes (overlap)", n, covered[n])
		}
	}
	return nil
}

// TestBootConfigTilingMatchesCoverageCountProperty holds Validate's
// tiling check to the per-node coverage count on random route sets:
// exact tilings, then tilings with a route dropped, widened, shifted
// over the rank or out of range. Both must return the same error text.
func TestBootConfigTilingMatchesCoverageCountProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	failures := 0
	for trial := 0; trial < 3000; trial++ {
		n := 2 + rng.Intn(40)
		c := BootConfig{Rank: rng.Intn(n), NumNodes: n, MemPerNode: memPerNode}
		// An exact tiling: cut [0,Rank) and (Rank,n) into random runs.
		for _, span := range [][2]int{{0, c.Rank - 1}, {c.Rank + 1, n - 1}} {
			for lo := span[0]; lo <= span[1]; {
				hi := min(span[1], lo+rng.Intn(8))
				c.RemoteRoutes = append(c.RemoteRoutes, RemoteRoute{LoNode: lo, HiNode: hi})
				lo = hi + 1
			}
		}
		rng.Shuffle(len(c.RemoteRoutes), func(i, j int) {
			c.RemoteRoutes[i], c.RemoteRoutes[j] = c.RemoteRoutes[j], c.RemoteRoutes[i]
		})
		if rs := c.RemoteRoutes; len(rs) > 0 && trial%4 != 0 {
			r := &rs[rng.Intn(len(rs))]
			switch rng.Intn(5) {
			case 0:
				*r = rs[len(rs)-1]
				c.RemoteRoutes = rs[:len(rs)-1]
			case 1:
				r.HiNode += 1 + rng.Intn(3)
			case 2:
				r.LoNode -= 1 + rng.Intn(3)
			case 3:
				r.LoNode, r.HiNode = c.Rank, c.Rank
			case 4:
				r.LoNode, r.HiNode = r.HiNode, r.LoNode
			}
		}
		got, want := c.Validate(1), coveredTiling(&c)
		if want == nil && len(c.RemoteRoutes) > nb.NumMMIORanges-1 {
			continue // the tiling holds; Validate goes on to count MMIO ranges
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%+v: Validate = %v, coverage count = %v", c, got, want)
		}
		if want != nil {
			failures++
		}
	}
	if failures < 1000 {
		t.Fatalf("only %d failing configurations generated", failures)
	}
}

// TestBootConfigValidateZeroAllocs: a valid configuration is checked
// without allocating, whatever the node count (256 on the torus).
func TestBootConfigValidateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := BootConfig{Rank: 100, NumNodes: 256, MemPerNode: memPerNode, RemoteRoutes: []RemoteRoute{
		{LoNode: 0, HiNode: 49}, {LoNode: 50, HiNode: 99}, {LoNode: 101, HiNode: 255},
	}}
	if err := c.Validate(1); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = c.Validate(1) }); allocs != 0 {
		t.Fatalf("Validate allocates %.1f objects, want 0", allocs)
	}
}
