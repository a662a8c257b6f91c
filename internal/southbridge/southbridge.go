// Package southbridge models the IO hub hanging off the BSP's
// non-coherent link: the chip that provides the BIOS flash ROM the
// firmware executes from during cache-as-RAM (CAR) mode. The paper's
// boot sequence notes that in CAR mode "the system is comparatively
// slow as the performance is limited by the read bandwidth of the ROM"
// (§V) — this device supplies that bandwidth limit, answering sized
// reads from a flash image with SPI-class latency.
package southbridge

import (
	"fmt"

	"repro/internal/ht"
	"repro/internal/sim"
)

// ROMBase is the global physical address of the BIOS flash window: the
// classic top-of-4GB reset-vector region.
const ROMBase uint64 = 0xFFFF_0000

// ROMWindow is the size of the flash window (one MMIO granule).
const ROMWindow = 64 << 10

// Params configure the device.
type Params struct {
	// ROMAccess is the latency of one sized read from flash (SPI serial
	// interface): ~3 us per 64-byte access = ~20 MB/s.
	ROMAccess sim.Time
}

// DefaultParams models a typical LPC/SPI flash part.
func DefaultParams() Params {
	return Params{ROMAccess: 3 * sim.Microsecond}
}

// Device is one southbridge with its flash ROM.
type Device struct {
	eng   *sim.Engine
	par   Params
	image []byte // flash contents from ROMBase; the window reads zeros past it
	port  *ht.Port
	srv   sim.Server

	// Read responses come from the device's own pool; the requester's
	// terminal consumer releases them, so their payload buffers recycle.
	// Pending reads ride pooled records on the device's typed event.
	pool    ht.PacketPool
	readRec *readRec // free list

	reads uint64
}

// readRec carries one flash read from its request to its response.
type readRec struct {
	next      *readRec
	off       uint64
	n         int
	tag       uint8
	requester int
}

// New creates a southbridge whose flash window holds image (at most
// 64 KB) at its base and reads zeros past it. The device keeps image
// without copying and never writes it, so one image may back every
// node's flash; the caller must not modify it afterwards.
func New(eng *sim.Engine, image []byte, par Params) (*Device, error) {
	if len(image) > ROMWindow {
		return nil, fmt.Errorf("southbridge: %d-byte image exceeds the %d-byte flash window",
			len(image), ROMWindow)
	}
	return &Device{eng: eng, par: par, image: image}, nil
}

// SetEngine rebinds the device onto a partition engine; called while
// quiescent, before a parallel run starts.
func (d *Device) SetEngine(e *sim.Engine) { d.eng = e }

// AttachTo connects the device to its side of the non-coherent link and
// starts answering reads.
func (d *Device) AttachTo(p *ht.Port) {
	d.port = p
	p.SetSink(func(pkt *ht.Packet, done func()) { d.handle(pkt, done) })
}

// Reads returns how many sized reads the flash has served.
func (d *Device) Reads() uint64 { return d.reads }

// Image returns the flash image; the window reads zeros past its end.
func (d *Device) Image() []byte { return d.image }

// handle terminates every request that reaches the flash: sized reads
// inside the window are answered after the flash access time, anything
// else (legacy IO writes, system-management traffic, reads outside the
// window, which master-abort) is absorbed. Requests arrive only from
// the BSP, which shares the device's partition, so the device releases
// them into their home pool directly.
func (d *Device) handle(pkt *ht.Packet, done func()) {
	if pkt.Cmd == ht.CmdRdSized {
		d.read(pkt)
	}
	done()
	pkt.Release()
}

// read schedules the response to a sized read, unless it falls outside
// the flash window.
func (d *Device) read(pkt *ht.Packet) {
	off := pkt.Addr - ROMBase
	n := (int(pkt.Count) + 1) * ht.DwordBytes
	if pkt.Addr < ROMBase || off+uint64(n) > ROMWindow {
		return // master abort: outside the flash window
	}
	d.reads++
	_, at := d.srv.Schedule(d.eng.Now(), d.par.ROMAccess)
	rec := d.readRec
	if rec == nil {
		rec = &readRec{}
	} else {
		d.readRec = rec.next
	}
	rec.off, rec.n, rec.tag, rec.requester = off, n, pkt.SrcTag, pkt.SrcNode
	d.eng.Schedule(at, d, sim.EventArg{Ptr: rec})
}

// OnEvent answers a pending read once the flash access completes.
func (d *Device) OnEvent(_ *sim.Engine, arg sim.EventArg) {
	rec := arg.Ptr.(*readRec)
	off, n, tag, requester := rec.off, rec.n, rec.tag, rec.requester
	rec.next = d.readRec
	d.readRec = rec
	resp, err := d.pool.ReadResponseBuffer(tag, n)
	if err != nil {
		return
	}
	if off < uint64(len(d.image)) {
		copy(resp.Data, d.image[off:])
	}
	resp.DstNode = requester
	if d.port.Send(resp) != nil {
		resp.Release() // link down: the response is lost
	}
}
