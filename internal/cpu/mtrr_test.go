package cpu

import "testing"

func TestMTRRDefaultType(t *testing.T) {
	m := NewMTRR(Uncacheable)
	if m.TypeOf(0x1234) != Uncacheable {
		t.Error("unmapped address not default type")
	}
	if m.Default() != Uncacheable {
		t.Error("Default() mismatch")
	}
}

func TestMTRRSetRangeValidation(t *testing.T) {
	m := NewMTRR(WriteBack)
	if err := m.SetRange(0x100, 0xFFF, Uncacheable); err == nil {
		t.Error("unaligned base accepted")
	}
	if err := m.SetRange(0, 0x100, Uncacheable); err == nil {
		t.Error("unaligned limit accepted")
	}
	if err := m.SetRange(0x2000, 0xFFF, Uncacheable); err == nil {
		t.Error("limit below base accepted")
	}
	if err := m.SetRange(0x1000, 0x1FFF, Uncacheable); err != nil {
		t.Errorf("valid range rejected: %v", err)
	}
}

func TestMTRRTypeOfRanges(t *testing.T) {
	m := NewMTRR(Uncacheable)
	if err := m.SetRange(0, 0xFFFF_FFFF, WriteBack); err != nil { // DRAM
		t.Fatal(err)
	}
	if err := m.SetRange(0x1_0000_0000, 0x1_FFFF_FFFF, WriteCombining); err != nil { // TCC window
		t.Fatal(err)
	}
	cases := []struct {
		addr uint64
		want MemType
	}{
		{0x1000, WriteBack},
		{0xFFFF_FFFF, WriteBack},
		{0x1_0000_0000, WriteCombining},
		{0x2_0000_0000, Uncacheable},
	}
	for _, c := range cases {
		if got := m.TypeOf(c.addr); got != c.want {
			t.Errorf("TypeOf(%#x) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestMTRROverlapStrongestWins(t *testing.T) {
	m := NewMTRR(WriteBack)
	if err := m.SetRange(0, 0xFFFF_FFFF, WriteBack); err != nil {
		t.Fatal(err)
	}
	// Carve a UC receive buffer out of WB DRAM: UC must win.
	if err := m.SetRange(0x10_0000, 0x10_FFFF, Uncacheable); err != nil {
		t.Fatal(err)
	}
	if got := m.TypeOf(0x10_8000); got != Uncacheable {
		t.Errorf("overlap resolved to %v, want UC", got)
	}
	// WC over WB: WC wins.
	if err := m.SetRange(0x20_0000, 0x20_FFFF, WriteCombining); err != nil {
		t.Fatal(err)
	}
	if got := m.TypeOf(0x20_8000); got != WriteCombining {
		t.Errorf("overlap resolved to %v, want WC", got)
	}
}

func TestMTRRRangesSorted(t *testing.T) {
	m := NewMTRR(Uncacheable)
	_ = m.SetRange(0x3000, 0x3FFF, WriteBack)
	_ = m.SetRange(0x1000, 0x1FFF, WriteCombining)
	rs := m.Ranges()
	if len(rs) != 2 || rs[0].Base != 0x1000 || rs[1].Base != 0x3000 {
		t.Errorf("Ranges() = %+v, want sorted by base", rs)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	line := func(i int) uint64 { return uint64(i * LineSize) }
	c.Install(line(1), make([]byte, LineSize))
	c.Install(line(2), make([]byte, LineSize))
	if _, ok := c.Lookup(line(1)); !ok { // promote line 1
		t.Fatal("line 1 missing")
	}
	c.Install(line(3), make([]byte, LineSize)) // evicts line 2 (LRU)
	if _, ok := c.Lookup(line(2)); ok {
		t.Error("LRU line 2 survived eviction")
	}
	if _, ok := c.Lookup(line(1)); !ok {
		t.Error("promoted line 1 was evicted")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	_, _, evicts := c.Stats()
	if evicts != 1 {
		t.Errorf("evicts = %d, want 1", evicts)
	}
}

func TestCacheUpdateAndInvalidate(t *testing.T) {
	c := NewCache(4)
	data := make([]byte, LineSize)
	c.Install(0, data)
	if !c.Update(0, 8, []byte{0xAB}) {
		t.Fatal("update of resident line failed")
	}
	got, ok := c.Lookup(0)
	if !ok || got[8] != 0xAB {
		t.Error("update not visible")
	}
	if c.Update(uint64(LineSize), 0, []byte{1}) {
		t.Error("update of absent line claimed success")
	}
	c.Invalidate(0)
	if _, ok := c.Lookup(0); ok {
		t.Error("invalidated line still resident")
	}
	c.Install(0, data)
	c.InvalidateAll()
	if c.Len() != 0 {
		t.Error("InvalidateAll left lines resident")
	}
}

func TestMaskRuns(t *testing.T) {
	cases := []struct {
		mask uint64
		want [][2]int
	}{
		{0, nil},
		{^uint64(0), [][2]int{{0, 64}}},
		{0x0F, [][2]int{{0, 4}}},
		{0xF0F0, [][2]int{{4, 8}, {12, 16}}},
		{1 << 63, [][2]int{{63, 64}}},
	}
	for _, c := range cases {
		var runs [maxMaskRuns][2]int
		got := runs[:maskRuns(c.mask, &runs)]
		if len(got) != len(c.want) {
			t.Errorf("maskRuns(%#x) = %v, want %v", c.mask, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("maskRuns(%#x)[%d] = %v, want %v", c.mask, i, got[i], c.want[i])
			}
		}
	}
}

func TestMaskRunsReconstructProperty(t *testing.T) {
	// Any mask decomposes into disjoint runs that OR back to the mask.
	for _, seed := range []uint64{0, 1, 0xDEADBEEF, ^uint64(0), 0x8000000000000001} {
		mask := seed
		for iter := 0; iter < 100; iter++ {
			mask = mask*6364136223846793005 + 1442695040888963407
			var rebuilt uint64
			prevEnd := 0
			var runs [maxMaskRuns][2]int
			for _, r := range runs[:maskRuns(mask, &runs)] {
				if r[0] < prevEnd {
					t.Fatalf("overlapping runs for %#x", mask)
				}
				if r[0] >= r[1] {
					t.Fatalf("empty run for %#x", mask)
				}
				for i := r[0]; i < r[1]; i++ {
					rebuilt |= 1 << i
				}
				prevEnd = r[1]
			}
			if rebuilt != mask {
				t.Fatalf("runs of %#x rebuild to %#x", mask, rebuilt)
			}
		}
	}
}

// maskRunsBitwise is the bit-by-bit scan maskRuns replaced, kept as its
// reference.
func maskRunsBitwise(mask uint64) [][2]int {
	var out [][2]int
	for i := 0; i < 64; {
		if mask&(1<<i) == 0 {
			i++
			continue
		}
		j := i
		for j < 64 && mask&(1<<j) != 0 {
			j++
		}
		out = append(out, [2]int{i, j})
		i = j
	}
	return out
}

func TestMaskRunsMatchesBitwiseScanProperty(t *testing.T) {
	// Stores are dword-granular, so every buffer mask is one of the 2^16
	// patterns of whole dwords. Check the empty and full masks and random
	// patterns against the bit-by-bit reference.
	patterns := []uint16{0, 0xFFFF, 1, 0x8000, 0x5555, 0xAAAA}
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 2000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		patterns = append(patterns, uint16(x>>48))
	}
	for _, p := range patterns {
		var mask uint64
		for d := 0; d < 16; d++ {
			if p&(1<<d) != 0 {
				mask |= 0xF << (4 * d)
			}
		}
		var runs [maxMaskRuns][2]int
		got := runs[:maskRuns(mask, &runs)]
		want := maskRunsBitwise(mask)
		if len(got) != len(want) {
			t.Fatalf("maskRuns(%#x) = %v, want %v", mask, got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("maskRuns(%#x) = %v, want %v", mask, got, want)
			}
		}
	}
}
