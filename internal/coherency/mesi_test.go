package coherency

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestColdReadIsExclusive(t *testing.T) {
	d := NewDomain(4, DefaultParams(), nil)
	r := d.Read(0, 0x1000)
	if r.Hit || r.State != Exclusive {
		t.Errorf("cold read: hit=%v state=%v, want miss Exclusive", r.Hit, r.State)
	}
	if r.ProbesSent != 3 {
		t.Errorf("cold read probes = %d, want 3 (broadcast)", r.ProbesSent)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSecondReaderDegradesToShared(t *testing.T) {
	d := NewDomain(2, DefaultParams(), nil)
	d.Read(0, 0x40)
	r := d.Read(1, 0x40)
	if r.State != Shared {
		t.Errorf("second reader state = %v, want Shared", r.State)
	}
	if d.StateOf(0, 0x40) != Shared {
		t.Errorf("first reader state = %v, want Shared", d.StateOf(0, 0x40))
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d := NewDomain(4, DefaultParams(), nil)
	for n := 0; n < 4; n++ {
		d.Read(n, 0x80)
	}
	w := d.Write(2, 0x80)
	if w.State != Modified {
		t.Errorf("writer state = %v, want Modified", w.State)
	}
	for n := 0; n < 4; n++ {
		want := Invalid
		if n == 2 {
			want = Modified
		}
		if got := d.StateOf(n, 0x80); got != want {
			t.Errorf("node %d state = %v, want %v", n, got, want)
		}
	}
	if d.Stats().Invalidations != 3 {
		t.Errorf("invalidations = %d, want 3", d.Stats().Invalidations)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSilentExclusiveToModifiedUpgrade(t *testing.T) {
	d := NewDomain(4, DefaultParams(), nil)
	d.Read(1, 0xC0) // Exclusive
	before := d.Stats().ProbesSent
	w := d.Write(1, 0xC0)
	if !w.Hit || w.ProbesSent != 0 {
		t.Errorf("E->M upgrade: hit=%v probes=%d, want silent hit", w.Hit, w.ProbesSent)
	}
	if d.Stats().ProbesSent != before {
		t.Error("E->M upgrade generated fabric probes")
	}
}

func TestDirtyLineWritebackOnPeerRead(t *testing.T) {
	d := NewDomain(2, DefaultParams(), nil)
	d.Read(0, 0x100)
	d.Write(0, 0x100) // node0 Modified
	d.Read(1, 0x100)  // forces writeback + degrade to Shared
	if d.Stats().WritebacksToMem != 1 {
		t.Errorf("writebacks = %d, want 1", d.Stats().WritebacksToMem)
	}
	if d.StateOf(0, 0x100) != Shared || d.StateOf(1, 0x100) != Shared {
		t.Error("both copies should be Shared after dirty read")
	}
}

func TestEvictDirtyWritesBack(t *testing.T) {
	d := NewDomain(2, DefaultParams(), nil)
	d.Write(0, 0x140)
	d.Evict(0, 0x140)
	if d.Stats().WritebacksToMem != 1 {
		t.Errorf("writebacks = %d, want 1", d.Stats().WritebacksToMem)
	}
	if d.StateOf(0, 0x140) != Invalid {
		t.Error("evicted line still valid")
	}
}

// The paper's §III scaling argument: probes per write grow linearly with
// domain size, and gather latency grows with fabric distance.
func TestProbeCostGrowsWithDomainSize(t *testing.T) {
	var prevProbes int
	var prevLat sim.Time
	for _, n := range []int{2, 4, 8, 16, 32} {
		// Chain-distance domain: worst responder is n-1 hops away.
		d := NewDomain(n, DefaultParams(), func(a, b int) int {
			if a > b {
				return a - b
			}
			return b - a
		})
		for peer := 0; peer < n; peer++ {
			d.Read(peer, 0x200)
		}
		w := d.Write(0, 0x200)
		if w.ProbesSent != n-1 {
			t.Errorf("n=%d: probes = %d, want %d", n, w.ProbesSent, n-1)
		}
		if w.ProbesSent <= prevProbes && n > 2 {
			t.Errorf("n=%d: probe count did not grow", n)
		}
		if w.Latency <= prevLat {
			t.Errorf("n=%d: gather latency %v did not grow past %v", n, w.Latency, prevLat)
		}
		prevProbes, prevLat = w.ProbesSent, w.Latency
	}
}

// Property: under arbitrary interleavings of reads, writes and evicts,
// MESI safety invariants hold at every step.
func TestMESIInvariantsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		d := NewDomain(4, DefaultParams(), nil)
		for _, op := range ops {
			node := int(op) % 4
			line := uint64((op>>2)%8) * 64
			switch (op >> 5) % 3 {
			case 0:
				d.Read(node, line)
			case 1:
				d.Write(node, line)
			default:
				d.Evict(node, line)
			}
			if d.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any write completes, the writer is the only valid
// copy (write serialization).
func TestWriteSerializationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		d := NewDomain(4, DefaultParams(), nil)
		line := uint64(0x300)
		for _, op := range ops {
			node := int(op) % 4
			if op&0x80 != 0 {
				d.Write(node, line)
				for peer := 0; peer < 4; peer++ {
					st := d.StateOf(peer, line)
					if peer == node && st != Modified {
						return false
					}
					if peer != node && st != Invalid {
						return false
					}
				}
			} else {
				d.Read(node, line)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
