package nb

import (
	"fmt"

	"repro/internal/prof"
	"repro/internal/sim"
)

const memPageSize = 4096

// Memory is the byte-addressable contents of one node's DRAM, stored as
// sparse 4 KB pages so multi-gigabyte nodes cost only what they touch.
// Offsets are local (0-based within the node's DIMMs); the memory
// controller translates from global physical addresses.
type Memory struct {
	size  uint64
	pages map[uint64]*[memPageSize]byte
}

// NewMemory returns a zeroed memory of the given size in bytes.
func NewMemory(size uint64) *Memory {
	return &Memory{size: size, pages: make(map[uint64]*[memPageSize]byte)}
}

// Size returns the capacity in bytes.
func (m *Memory) Size() uint64 { return m.size }

func (m *Memory) check(off uint64, n int) error {
	if n < 0 || off > m.size || uint64(n) > m.size-off {
		return fmt.Errorf("nb: memory access [%#x,+%d) outside %#x bytes", off, n, m.size)
	}
	return nil
}

// Write copies src into memory at off.
func (m *Memory) Write(off uint64, src []byte) error {
	if err := m.check(off, len(src)); err != nil {
		return err
	}
	for len(src) > 0 {
		pg := off / memPageSize
		po := off % memPageSize
		page := m.pages[pg]
		if page == nil {
			page = new([memPageSize]byte)
			m.pages[pg] = page
		}
		n := copy(page[po:], src)
		src = src[n:]
		off += uint64(n)
	}
	return nil
}

// Read copies memory at off into dst.
func (m *Memory) Read(off uint64, dst []byte) error {
	if err := m.check(off, len(dst)); err != nil {
		return err
	}
	for len(dst) > 0 {
		pg := off / memPageSize
		po := off % memPageSize
		var n int
		if page := m.pages[pg]; page != nil {
			n = copy(dst, page[po:])
		} else {
			n = copy(dst, zeroPage[po:])
		}
		dst = dst[n:]
		off += uint64(n)
	}
	return nil
}

var zeroPage [memPageSize]byte

// TouchedPages reports how many pages have been materialized, used by
// footprint accounting in the endpoint-scaling experiment.
func (m *Memory) TouchedPages() int { return len(m.pages) }

// MemParams are the timing parameters of the DDR2 memory controller.
type MemParams struct {
	AccessLatency sim.Time // controller + DRAM access latency
	Bandwidth     float64  // sustained bytes/second (dual-channel DDR2-800 ≈ 12.8e9)
}

// DefaultMemParams models the dual-channel DDR2-800 configuration of the
// paper's Tyan S2912E prototypes.
func DefaultMemParams() MemParams {
	return MemParams{
		AccessLatency: 55 * sim.Nanosecond,
		Bandwidth:     12.8e9,
	}
}

// MemoryController fronts a Memory with a timed access port. It maps the
// global physical address window [Base, Base+Size) onto local offsets.
type MemoryController struct {
	eng     *sim.Engine
	mem     *Memory
	par     MemParams
	base    uint64
	port    sim.Server
	reads   uint64
	writes  uint64
	recFree *mcRec
	prof    *prof.NodeProf // shared with the owning northbridge
	profD   sim.Time       // counted-constant service time (uncontended 64B access)
}

// Event opcodes carried in sim.EventArg.I; arg.Ptr is always an *mcRec.
const (
	mcOpAccepted int64 = iota // port consumed the data: upstream may recycle
	mcOpVisible               // bits are in DRAM: run visibility callback
	mcOpRead                  // access latency elapsed: read and deliver
)

// mcRec carries one in-flight controller access. Records are pooled, and
// a write's staging buffer stays on the record across recycles, so a
// steady-state DRAM write allocates nothing.
type mcRec struct {
	next     *mcRec
	off      uint64
	buf      []byte // staged write data (capacity reused)
	accepted func()
	visible  func(error)
	rdDst    []byte // caller-owned read destination
	rdCB     func([]byte, error)
}

func (mc *MemoryController) getRec() *mcRec {
	rec := mc.recFree
	if rec == nil {
		return &mcRec{}
	}
	mc.recFree = rec.next
	rec.next = nil
	return rec
}

func (mc *MemoryController) putRec(rec *mcRec) {
	rec.accepted, rec.visible, rec.rdDst, rec.rdCB = nil, nil, nil, nil
	rec.next = mc.recFree
	mc.recFree = rec
}

// OnEvent dispatches the controller's typed events. A write schedules up
// to two events on one record — acceptance at port-drain time, then
// visibility after the access latency — and the record is freed by the
// visibility event, which always fires last.
func (mc *MemoryController) OnEvent(_ *sim.Engine, arg sim.EventArg) {
	rec := arg.Ptr.(*mcRec)
	switch arg.I {
	case mcOpAccepted:
		rec.accepted()
	case mcOpVisible:
		visible := rec.visible
		err := mc.mem.Write(rec.off, rec.buf)
		mc.putRec(rec)
		visible(err)
	case mcOpRead:
		off, dst, cb := rec.off, rec.rdDst, rec.rdCB
		mc.putRec(rec)
		cb(dst, mc.mem.Read(off, dst))
	}
}

// NewMemoryController creates a controller over size bytes of DRAM.
// The global base address is set later by firmware (SetBase), matching
// the "Memory Init" boot step.
func NewMemoryController(eng *sim.Engine, size uint64, par MemParams) *MemoryController {
	return &MemoryController{eng: eng, mem: NewMemory(size), par: par}
}

// SetBase installs the global physical address of this node's first DRAM
// byte.
func (mc *MemoryController) SetBase(base uint64) { mc.base = base }

// SetEngine rebinds the controller onto a partition engine; called
// while quiescent, before a parallel run starts.
func (mc *MemoryController) SetEngine(e *sim.Engine) { mc.eng = e }

// Base returns the configured global base address.
func (mc *MemoryController) Base() uint64 { return mc.base }

// Memory returns the backing store (for zero-time test setup and the
// kernel's direct-map view).
func (mc *MemoryController) Memory() *Memory { return mc.mem }

// Stats returns the number of timed reads and writes served.
func (mc *MemoryController) Stats() (reads, writes uint64) { return mc.reads, mc.writes }

func (mc *MemoryController) xferTime(n int) sim.Time {
	return sim.Time(float64(n) / mc.par.Bandwidth * 1e12)
}

// Write performs a timed write of data at the global address addr and
// invokes cb when the data is globally visible in DRAM.
func (mc *MemoryController) Write(addr uint64, data []byte, cb func(error)) {
	mc.WriteAccepted(addr, data, nil, cb)
}

// WriteAccepted is Write with an extra notification: accepted fires when
// the controller's port has consumed the data (the moment an upstream
// receive buffer may be recycled), visible when the bits are in DRAM.
// On a fault, only visible reports it.
func (mc *MemoryController) WriteAccepted(addr uint64, data []byte, accepted func(), visible func(error)) {
	off := addr - mc.base
	if err := mc.mem.check(off, len(data)); err != nil {
		if accepted != nil {
			accepted()
		}
		visible(err)
		return
	}
	rec := mc.getRec()
	rec.off = off
	rec.buf = append(rec.buf[:0], data...)
	rec.accepted = accepted
	rec.visible = visible
	now := mc.eng.Now()
	_, done := mc.port.Schedule(now, mc.xferTime(len(data)))
	mc.writes++
	if np := mc.prof; np != nil {
		if d := done - now + mc.par.AccessLatency; d == mc.profD {
			np.AddConst(prof.NodeMemService)
		} else {
			np.Observe(prof.NodeMemService, d)
		}
	}
	if accepted != nil {
		mc.eng.Schedule(done, mc, sim.EventArg{Ptr: rec, I: mcOpAccepted})
	}
	mc.eng.Schedule(done+mc.par.AccessLatency, mc, sim.EventArg{Ptr: rec, I: mcOpVisible})
}

// Read performs a timed read of len(dst) bytes at the global address
// addr into dst, which the caller owns: the controller allocates
// nothing, and cb receives dst itself once the access latency elapses.
func (mc *MemoryController) Read(addr uint64, dst []byte, cb func([]byte, error)) {
	off := addr - mc.base
	if err := mc.mem.check(off, len(dst)); err != nil {
		cb(nil, err)
		return
	}
	now := mc.eng.Now()
	_, done := mc.port.Schedule(now, mc.xferTime(len(dst)))
	mc.reads++
	if np := mc.prof; np != nil {
		if d := done - now + mc.par.AccessLatency; d == mc.profD {
			np.AddConst(prof.NodeMemService)
		} else {
			np.Observe(prof.NodeMemService, d)
		}
	}
	rec := mc.getRec()
	rec.off, rec.rdDst, rec.rdCB = off, dst, cb
	mc.eng.Schedule(done+mc.par.AccessLatency, mc, sim.EventArg{Ptr: rec, I: mcOpRead})
}
