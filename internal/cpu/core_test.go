package cpu

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/ht"
	"repro/internal/nb"
	"repro/internal/sim"
)

const nodeMem = 256 << 20

// rig is a hand-built two-node TCCluster with one core per node and
// paper-faithful MTRR programming: local DRAM WB, remote window WC on
// the sender side, receive buffers UC.
type rig struct {
	eng        *sim.Engine
	nbA, nbB   *nb.Northbridge
	a, b       *Core
	remoteBase uint64 // where node1's memory appears to node0
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine()
	nbA := nb.New(eng, "node0", nodeMem, nb.DefaultParams())
	nbB := nb.New(eng, "node1", nodeMem, nb.DefaultParams())

	link := ht.NewLink(eng, ht.DefaultLinkConfig(ht.ClassProcessor, ht.ClassProcessor))
	link.ColdReset()
	eng.Run()
	for _, p := range []*ht.Port{link.A(), link.B()} {
		p.SetForceNonCoherent(true)
		p.SetProgrammedSpeed(ht.HT800)
		p.SetProgrammedWidth(16)
	}
	link.WarmReset()
	eng.Run()

	mustNil(t, nbA.AttachLink(0, link.A()))
	mustNil(t, nbB.AttachLink(0, link.B()))
	mustNil(t, nbA.SetNodeID(0))
	mustNil(t, nbB.SetNodeID(0))
	mustNil(t, nbA.SetDRAMRange(0, nb.DRAMRange{Base: 0, Limit: nodeMem - 1, DstNode: 0, RE: true, WE: true}))
	mustNil(t, nbA.SetMMIORange(0, nb.MMIORange{Base: nodeMem, Limit: 2*nodeMem - 1, DstNode: 0, DstLink: 0, RE: true, WE: true}))
	nbA.MemController().SetBase(0)
	mustNil(t, nbB.SetDRAMRange(0, nb.DRAMRange{Base: nodeMem, Limit: 2*nodeMem - 1, DstNode: 0, RE: true, WE: true}))
	mustNil(t, nbB.SetMMIORange(0, nb.MMIORange{Base: 0, Limit: nodeMem - 1, DstNode: 0, DstLink: 0, RE: true, WE: true}))
	nbB.MemController().SetBase(nodeMem)

	a := NewCore(eng, nbA, DefaultParams())
	b := NewCore(eng, nbB, DefaultParams())

	// Paper MTRR programming: DRAM write-back, remote window
	// write-combining, receive region (first 1 MB of local DRAM)
	// uncachable so polls see remote stores.
	mustNil(t, a.MTRR().SetRange(0, nodeMem-1, WriteBack))
	mustNil(t, a.MTRR().SetRange(nodeMem, 2*nodeMem-1, WriteCombining))
	mustNil(t, a.MTRR().SetRange(0, 1<<20-1, Uncacheable))
	mustNil(t, b.MTRR().SetRange(nodeMem, 2*nodeMem-1, WriteBack))
	mustNil(t, b.MTRR().SetRange(0, nodeMem-1, WriteCombining))
	mustNil(t, b.MTRR().SetRange(nodeMem, nodeMem+1<<20-1, Uncacheable))

	return &rig{eng: eng, nbA: nbA, nbB: nbB, a: a, b: b, remoteBase: nodeMem}
}

func mustNil(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func pattern(n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(i*13 + 7)
	}
	return d
}

func peerMem(t *testing.T, r *rig, off uint64, n int) []byte {
	t.Helper()
	got := make([]byte, n)
	mustNil(t, r.nbB.MemController().Memory().Read(off, got))
	return got
}

func TestWCAggregatesFullLinePackets(t *testing.T) {
	r := newRig(t)
	data := pattern(1024)
	done := false
	r.a.StoreBlock(r.remoteBase+0x1000, data, func(err error) {
		mustNil(t, err)
		done = true
	})
	r.eng.Run()
	if !done {
		t.Fatal("StoreBlock never completed")
	}
	if got := peerMem(t, r, 0x1000, 1024); !bytes.Equal(got, data) {
		t.Error("remote memory does not match written data")
	}
	c := r.a.Counters()
	if c.WCPacketsSent != 16 {
		t.Errorf("WC packets = %d, want 16 (one 64B packet per line)", c.WCPacketsSent)
	}
	if c.WCFullFlushes != 16 {
		t.Errorf("full flushes = %d, want 16", c.WCFullFlushes)
	}
	if c.UCStores != 0 {
		t.Errorf("UC stores = %d, want 0", c.UCStores)
	}
}

func TestPartialLineNeedsFence(t *testing.T) {
	r := newRig(t)
	data := pattern(16) // quarter line: stays in the WC buffer
	r.a.StoreBlock(r.remoteBase+0x2000, data, func(err error) { mustNil(t, err) })
	r.eng.Run()
	if got := peerMem(t, r, 0x2000, 16); bytes.Equal(got, data) {
		t.Fatal("partial line reached remote memory without a fence")
	}
	if r.a.WCInUse() != 1 {
		t.Fatalf("WC buffers in use = %d, want 1", r.a.WCInUse())
	}
	fenced := false
	r.a.Sfence(func() { fenced = true })
	r.eng.Run()
	if !fenced {
		t.Fatal("Sfence never completed")
	}
	if got := peerMem(t, r, 0x2000, 16); !bytes.Equal(got, data) {
		t.Error("fence did not push the partial line out")
	}
	if r.a.Counters().WCFenceFlushes != 1 {
		t.Errorf("fence flushes = %d, want 1", r.a.Counters().WCFenceFlushes)
	}
}

func TestUCStoresDoNotCombine(t *testing.T) {
	r := newRig(t)
	// Remap the window UC on node0: every 8-byte store becomes its own
	// HT packet.
	mustNil(t, r.a.MTRR().SetRange(r.remoteBase, 2*nodeMem-1, Uncacheable))
	data := pattern(128)
	r.a.StoreBlock(r.remoteBase+0x3000, data, func(err error) { mustNil(t, err) })
	r.eng.Run()
	if got := peerMem(t, r, 0x3000, 128); !bytes.Equal(got, data) {
		t.Error("UC store data did not land")
	}
	c := r.a.Counters()
	if c.UCStores != 16 {
		t.Errorf("UC stores = %d, want 16 (128B / 8B)", c.UCStores)
	}
	if c.WCPacketsSent != 0 {
		t.Errorf("WC packets = %d, want 0", c.WCPacketsSent)
	}
}

func TestWCEvictionOnNinthLine(t *testing.T) {
	r := newRig(t)
	// Touch 4 bytes in each of 9 distinct lines: the 9th allocation must
	// evict the oldest buffer.
	for i := 0; i < 9; i++ {
		addr := r.remoteBase + uint64(i)*LineSize
		r.a.Store(addr, []byte{1, 2, 3, 4}, func(err error) { mustNil(t, err) })
	}
	r.eng.Run()
	c := r.a.Counters()
	if c.WCEvictFlushes == 0 {
		t.Error("no eviction flush recorded for 9 concurrent lines")
	}
	if c.WCStallRetries == 0 {
		t.Error("no stall retry recorded")
	}
	// The evicted (oldest) line's 4 bytes must be at the peer.
	if got := peerMem(t, r, 0, 4); !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Error("evicted partial line not delivered")
	}
}

func TestWBLocalStoreLoadRoundTrip(t *testing.T) {
	r := newRig(t)
	addr := uint64(4 << 20) // in WB DRAM, outside the UC receive region
	data := pattern(64)
	r.a.Store(addr, data, func(err error) { mustNil(t, err) })
	r.eng.Run()
	var got []byte
	r.a.Load(addr, 64, func(d []byte, err error) { mustNil(t, err); got = append([]byte(nil), d...) })
	r.eng.Run()
	if !bytes.Equal(got, data) {
		t.Error("WB round trip mismatch")
	}
}

// The failure mode §VI's UC mapping exists to prevent: a write-back
// mapped receive buffer serves stale cache lines forever, because
// TCCluster stores invalidate nothing.
func TestWBMappedReceiveBufferGoesStale(t *testing.T) {
	r := newRig(t)
	flagAddr := uint64(8 << 20) // WB-mapped region of node0's DRAM

	// Node0 reads the (zero) flag: installs the line in its cache.
	var first []byte
	r.a.Load(flagAddr, 8, func(d []byte, err error) { mustNil(t, err); first = append([]byte(nil), d...) })
	r.eng.Run()
	if first[0] != 0 {
		t.Fatal("flag not initially zero")
	}

	// Node1 remote-stores the flag (fence after the store retires,
	// since a sub-line store parks in a WC buffer).
	r.b.StoreBlock(flagAddr, []byte{0xFF, 1, 2, 3, 4, 5, 6, 7}, func(err error) {
		mustNil(t, err)
		r.b.Sfence(func() {})
	})
	r.eng.Run()

	// DRAM has the new value...
	inDRAM := make([]byte, 8)
	mustNil(t, r.nbA.MemController().Memory().Read(flagAddr, inDRAM))
	if inDRAM[0] != 0xFF {
		t.Fatal("remote store did not reach DRAM")
	}
	// ...but the WB poll still sees the stale cached zero.
	var stale []byte
	r.a.Load(flagAddr, 8, func(d []byte, err error) { mustNil(t, err); stale = append([]byte(nil), d...) })
	r.eng.Run()
	if stale[0] != 0 {
		t.Fatal("WB-mapped poll saw the remote store; it must read the stale cache line")
	}

	// A UC mapping (what the paper's driver configures) sees it.
	mustNil(t, r.a.MTRR().SetRange(flagAddr&^0xFFF, (flagAddr&^0xFFF)+0xFFF, Uncacheable))
	var fresh []byte
	r.a.Load(flagAddr, 8, func(d []byte, err error) { mustNil(t, err); fresh = append([]byte(nil), d...) })
	r.eng.Run()
	if fresh[0] != 0xFF {
		t.Error("UC poll did not see the remote store")
	}
}

func TestRemoteReadsStrand(t *testing.T) {
	r := newRig(t)
	var err1, err2 error
	// UC load from the remote window (UC outranks the rig's WC mapping).
	mustNil(t, r.a.MTRR().SetRange(r.remoteBase, 2*nodeMem-1, Uncacheable))
	r.a.Load(r.remoteBase+0x40, 8, func(_ []byte, err error) { err1 = err })
	r.eng.Run()
	if !errors.Is(err1, ErrStranded) {
		t.Errorf("UC remote load err = %v, want ErrStranded", err1)
	}
	// WB store to the remote window (write-allocate fill). WB is the
	// weakest type, so reprogram the MTRRs from scratch.
	r.a.MTRR().Clear()
	mustNil(t, r.a.MTRR().SetRange(r.remoteBase, 2*nodeMem-1, WriteBack))
	r.a.Store(r.remoteBase+0x40, []byte{1, 2, 3, 4}, func(err error) { err2 = err })
	r.eng.Run()
	if !errors.Is(err2, ErrStranded) {
		t.Errorf("WB remote store err = %v, want ErrStranded", err2)
	}
	if r.a.Counters().StrandedOps != 2 {
		t.Errorf("stranded ops = %d, want 2", r.a.Counters().StrandedOps)
	}
}

func TestAccessValidation(t *testing.T) {
	r := newRig(t)
	bad := func(addr uint64, n int) {
		t.Helper()
		called := false
		r.a.Store(addr, make([]byte, n), func(err error) {
			called = true
			if err == nil {
				t.Errorf("Store(%#x, %d) accepted", addr, n)
			}
		})
		if !called {
			t.Errorf("Store(%#x, %d): no synchronous rejection", addr, n)
		}
	}
	bad(0x1002, 4)  // unaligned
	bad(0x1000, 6)  // not a dword multiple
	bad(0x1000, 0)  // empty
	bad(0x1020, 64) // crosses line
}

// Weakly ordered streaming bandwidth must be link-bound: roughly
// 64B / 22.9ns ≈ 2.7-2.8 GB/s at HT800 x16 (paper Fig. 6 sustained).
func TestWeakOrderedStreamingBandwidth(t *testing.T) {
	r := newRig(t)
	const size = 256 << 10
	data := pattern(size)
	start := r.eng.Now()
	var done sim.Time
	r.a.StoreBlock(r.remoteBase+0x10000, data, func(err error) {
		mustNil(t, err)
		r.a.Sfence(func() { done = r.eng.Now() })
	})
	r.eng.Run()
	if done == 0 {
		t.Fatal("transfer never completed")
	}
	gbps := float64(size) / float64(done-start) * 1e12 / 1e9
	if gbps < 2.3 || gbps > 3.2 {
		t.Errorf("weak-ordered bandwidth = %.2f GB/s, want ~2.7 (link-bound)", gbps)
	}
}

// Strictly ordered (fence per line) bandwidth plateaus below the weak
// path (paper Fig. 6: ~2000 vs ~2700 MB/s).
func TestOrderedBandwidthBelowWeak(t *testing.T) {
	r := newRig(t)
	const lines = 2048
	start := r.eng.Now()
	var finish sim.Time
	var step func(i int)
	step = func(i int) {
		if i >= lines {
			finish = r.eng.Now()
			return
		}
		addr := r.remoteBase + 0x20000 + uint64(i)*LineSize
		r.a.Store(addr, pattern(LineSize), func(err error) {
			mustNil(t, err)
			r.a.Sfence(func() { step(i + 1) })
		})
	}
	step(0)
	r.eng.Run()
	gbps := float64(lines*LineSize) / float64(finish-start) * 1e12 / 1e9
	if gbps < 1.5 || gbps > 2.5 {
		t.Errorf("ordered bandwidth = %.2f GB/s, want ~2.0", gbps)
	}
}

// End-to-end ping latency: remote store of one line plus an uncached
// poll detect on the receiver ≈ the paper's 227 ns half round trip.
func TestOneWayStorePollLatency(t *testing.T) {
	r := newRig(t)
	flag := uint64(0x40) // node0 address, UC-mapped on node0... this is node1 writing to node0?
	_ = flag
	// Node0 stores to node1's receive region; node1 polls it UC.
	dst := r.remoteBase + 0x40 // node1 local offset 0x40, UC-mapped at node1
	start := r.eng.Now()
	var detect sim.Time
	polls := 0
	var poll func()
	poll = func() {
		polls++
		if polls > 100 {
			return // bail out of a broken run instead of spinning
		}
		r.b.Load(r.remoteBase+0x40, 8, func(d []byte, err error) {
			mustNil(t, err)
			if d[0] != 0 {
				detect = r.eng.Now()
				return
			}
			poll()
		})
	}
	poll()
	r.a.Store(dst, []byte{0xEE, 0, 0, 0, 0, 0, 0, 0}, func(err error) {
		mustNil(t, err)
		r.a.Sfence(func() {})
	})
	r.eng.Run()
	if detect == 0 {
		t.Fatal("poll never observed the remote store")
	}
	lat := detect - start
	if lat < 150*sim.Nanosecond || lat > 320*sim.Nanosecond {
		t.Errorf("store+poll latency = %v, want ~227ns ± margin", lat)
	}
}

// Property: an arbitrary sequence of write-back stores and loads to
// local DRAM behaves exactly like a flat byte array (the shadow model),
// despite the cache sitting in the middle.
func TestWBMemorySemanticsProperty(t *testing.T) {
	type op struct {
		Off   uint16
		Data  [8]byte
		Write bool
	}
	f := func(ops []op) bool {
		r := newRig(t)
		shadow := make([]byte, 1<<16)
		base := uint64(16 << 20) // WB region, outside the UC window
		ok := true
		var step func(i int)
		step = func(i int) {
			if i >= len(ops) || !ok {
				return
			}
			o := ops[i]
			addr := base + uint64(o.Off&^7) // 8-aligned, within one line
			off := int(o.Off &^ 7)
			if o.Write {
				copy(shadow[off:], o.Data[:])
				r.a.Store(addr, o.Data[:], func(err error) {
					if err != nil {
						ok = false
						return
					}
					step(i + 1)
				})
			} else {
				r.a.Load(addr, 8, func(d []byte, err error) {
					if err != nil || !bytes.Equal(d, shadow[off:off+8]) {
						ok = false
						return
					}
					step(i + 1)
				})
			}
		}
		step(0)
		r.eng.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadStreamMatchesLoadBlock(t *testing.T) {
	r := newRig(t)
	// Fill a UC region (the receive window) with a pattern.
	data := pattern(1024)
	mustNil(t, r.nbA.MemController().Memory().Write(0x8000, data))
	addr := uint64(0x8000) // inside node0's UC window

	var blockGot, streamGot []byte
	r.a.LoadBlock(addr, 1024, func(d []byte, err error) { mustNil(t, err); blockGot = d })
	r.eng.Run()
	start := r.eng.Now()
	r.a.LoadStream(addr, 1024, func(d []byte, err error) { mustNil(t, err); streamGot = append([]byte(nil), d...) })
	r.eng.Run()
	streamTime := r.eng.Now() - start

	if !bytes.Equal(blockGot, data) || !bytes.Equal(streamGot, data) {
		t.Fatal("load contents mismatch")
	}
	// Streaming loads pipeline StreamDepth reads: measure serial time.
	start = r.eng.Now()
	r.a.LoadBlock(addr, 1024, func(d []byte, err error) { mustNil(t, err) })
	r.eng.Run()
	serialTime := r.eng.Now() - start
	if streamTime >= serialTime*2/3 {
		t.Errorf("stream %v not clearly faster than serial %v", streamTime, serialTime)
	}
}

func TestLoadStreamValidation(t *testing.T) {
	r := newRig(t)
	r.a.LoadStream(0x8001, 8, func(_ []byte, err error) {
		if err == nil {
			t.Error("unaligned stream load accepted")
		}
	})
	// WB memory must use LoadBlock (streaming loads bypass the cache).
	r.a.LoadStream(16<<20, 64, func(_ []byte, err error) {
		if err == nil {
			t.Error("WB stream load accepted")
		}
	})
	// Remote (TCCluster) stream loads strand like any other read.
	r.a.LoadStream(r.remoteBase+0x1000, 64, func(_ []byte, err error) {
		if !errors.Is(err, ErrStranded) {
			t.Errorf("remote stream load err = %v", err)
		}
	})
	r.eng.Run()
}

func TestFlushWCWithoutFence(t *testing.T) {
	r := newRig(t)
	r.a.Store(r.remoteBase+0x5000, []byte{1, 2, 3, 4}, func(err error) { mustNil(t, err) })
	r.eng.Run()
	if r.a.WCInUse() != 1 {
		t.Fatalf("WC in use = %d", r.a.WCInUse())
	}
	r.a.FlushWC()
	r.eng.Run()
	if r.a.WCInUse() != 0 {
		t.Error("FlushWC left buffers occupied")
	}
	if got := peerMem(t, r, 0x5000, 4); !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Error("flushed data not delivered")
	}
}

func TestLoadFromWCRegionFlushesFirst(t *testing.T) {
	r := newRig(t)
	// Store into the WC window, then load the same line back: the load
	// must flush the buffer (data lands remotely) and then read... the
	// remote read strands, but the flush must still have happened.
	addr := r.remoteBase + 0x6000
	r.a.Store(addr, []byte{9, 8, 7, 6}, func(err error) { mustNil(t, err) })
	r.eng.Run()
	r.a.Load(addr, 4, func(_ []byte, err error) {
		if !errors.Is(err, ErrStranded) {
			t.Errorf("WC-region remote load err = %v", err)
		}
	})
	r.eng.Run()
	if got := peerMem(t, r, 0x6000, 4); !bytes.Equal(got, []byte{9, 8, 7, 6}) {
		t.Error("load did not flush the WC buffer first")
	}
}

func TestAccessorsAndStrings(t *testing.T) {
	r := newRig(t)
	if r.a.Cache() == nil || r.a.Node() != r.nbA {
		t.Error("accessors broken")
	}
	for typ, want := range map[MemType]string{WriteBack: "WB", Uncacheable: "UC", WriteCombining: "WC", MemType(9): "MemType(9)"} {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(typ), got, want)
		}
	}
	// NewCore normalizes non-positive parameters.
	c := NewCore(r.eng, r.nbA, Params{})
	if c.WCInUse() != 0 {
		t.Error("fresh core holds WC buffers")
	}
}
