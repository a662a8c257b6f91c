package firmware

import (
	"bytes"
	"testing"

	"repro/internal/cpu"
	"repro/internal/ht"
	"repro/internal/nb"
	"repro/internal/sim"
)

// buildSMP wires a 4-socket board: sockets chained by coherent links,
// a southbridge on the BSP, no TCCluster links — the paper's Figure 2.
func buildSMP(t *testing.T, sockets int) (*sim.Engine, *Machine) {
	t.Helper()
	eng := sim.NewEngine()
	m := NewMachine(eng, "smp")
	for s := 0; s < sockets; s++ {
		n := nb.New(eng, "smp", 128<<20, nb.DefaultParams())
		core := cpu.NewCore(eng, n, cpu.DefaultParams())
		m.AddProcessor(Processor{NB: n, Cores: []*cpu.Core{core}})
	}
	for s := 0; s+1 < sockets; s++ {
		il := ht.NewLink(eng, ht.DefaultLinkConfig(ht.ClassProcessor, ht.ClassProcessor))
		if err := m.Procs[s].NB.AttachLink(3, il.A()); err != nil {
			t.Fatal(err)
		}
		if err := m.Procs[s+1].NB.AttachLink(2, il.B()); err != nil {
			t.Fatal(err)
		}
		m.AddInternalLink(s, 3, s+1, 2, il)
		il.ColdReset()
	}
	sb := ht.NewLink(eng, ht.DefaultLinkConfig(ht.ClassProcessor, ht.ClassIODevice))
	if err := m.Procs[0].NB.AttachLink(1, sb.A()); err != nil {
		t.Fatal(err)
	}
	m.SetSouthbridge(1, sb)
	sb.ColdReset()
	eng.Run()
	return eng, m
}

func TestSMPBootSharedMemoryMap(t *testing.T) {
	eng, m := buildSMP(t, 4)
	if err := m.BootSMP(); err != nil {
		t.Fatalf("SMP boot: %v\n%s", err, m.Log())
	}
	_ = eng
	// NodeIDs distinct, chain order.
	for s, p := range m.Procs {
		if got := p.NB.NodeID(); got != uint8(s) {
			t.Errorf("socket %d NodeID = %d", s, got)
		}
	}
	// Every socket decodes every slice to the right home.
	for _, p := range m.Procs {
		for j := range m.Procs {
			addr := uint64(j)*128<<20 + 0x40
			d := p.NB.DecodeAddress(addr)
			if d.DstNode != uint8(j) {
				t.Errorf("decode(%#x) home = %d, want %d", addr, d.DstNode, j)
			}
		}
	}
	if !m.Log().Has("cpu-msr-init") || !m.Log().Has("load-os") {
		t.Error("boot log incomplete")
	}
}

// The whole point of the coherent baseline: write-back stores and loads
// work ACROSS sockets — the thing TCCluster gives up.
func TestSMPCrossSocketWriteBackTraffic(t *testing.T) {
	eng, m := buildSMP(t, 4)
	if err := m.BootSMP(); err != nil {
		t.Fatal(err)
	}
	core0 := m.Procs[0].Cores[0]
	// Socket 0 stores into socket 3's slice.
	dst := uint64(3)*128<<20 + 0x1000
	want := []byte("coherent shared memory works")
	for len(want)%8 != 0 {
		want = append(want, '!')
	}
	done := false
	core0.StoreBlock(dst, want, func(err error) {
		if err != nil {
			t.Fatalf("cross-socket WB store: %v", err)
		}
		done = true
	})
	eng.Run()
	if !done {
		t.Fatal("store never retired")
	}
	inDRAM := make([]byte, len(want))
	if err := m.Procs[3].NB.MemController().Memory().Read(0x1000, inDRAM); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inDRAM, want) {
		t.Fatalf("socket 3 DRAM holds %q", inDRAM)
	}

	// Socket 1 loads it back over the coherent fabric (uncached copy of
	// socket 0's cache is not needed: the line comes from DRAM).
	core1 := m.Procs[1].Cores[0]
	var got []byte
	core1.LoadBlock(dst, len(want), func(d []byte, err error) {
		if err != nil {
			t.Fatalf("cross-socket WB load: %v", err)
		}
		got = append([]byte(nil), d...)
	})
	eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatalf("cross-socket load got %q", got)
	}
	if m.Procs[3].NB.Counters().OrphanResponses != 0 {
		t.Error("coherent read orphaned a response")
	}
}

func TestBootSMPRejectsTCCLinks(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMachine(eng, "bad")
	n := nb.New(eng, "n", 128<<20, nb.DefaultParams())
	m.AddProcessor(Processor{NB: n, Cores: []*cpu.Core{cpu.NewCore(eng, n, cpu.DefaultParams())}})
	l := ht.NewLink(eng, ht.DefaultLinkConfig(ht.ClassProcessor, ht.ClassProcessor))
	if err := n.AttachLink(0, l.A()); err != nil {
		t.Fatal(err)
	}
	m.AddTCCLink(0, 0, l)
	if err := m.BootSMP(); err == nil {
		t.Fatal("BootSMP accepted a machine with TCCluster links")
	}
}

// Cross-socket write-back loads install cache lines: the second load of
// the same line is a cache hit and never touches the fabric — the
// latency benefit coherent SMPs buy with their probe overhead.
func TestSMPCrossSocketLoadCaches(t *testing.T) {
	eng, m := buildSMP(t, 2)
	if err := m.BootSMP(); err != nil {
		t.Fatal(err)
	}
	if err := m.Procs[1].NB.MemController().Memory().Write(0x40, []byte{0x77}); err != nil {
		t.Fatal(err)
	}
	core0 := m.Procs[0].Cores[0]
	addr := uint64(128<<20) + 0x40 // socket 1's slice

	start := eng.Now()
	var first []byte
	core0.Load(addr, 8, func(d []byte, err error) {
		if err != nil {
			t.Fatalf("first load: %v", err)
		}
		first = append([]byte(nil), d...)
	})
	eng.Run()
	missTime := eng.Now() - start
	if first[0] != 0x77 {
		t.Fatalf("first load got %v", first)
	}

	start = eng.Now()
	core0.Load(addr, 8, func(d []byte, err error) {
		if err != nil {
			t.Fatalf("second load: %v", err)
		}
	})
	eng.Run()
	hitTime := eng.Now() - start
	if hitTime >= missTime/3 {
		t.Errorf("cache hit %v not clearly below the cross-socket miss %v", hitTime, missTime)
	}
}
