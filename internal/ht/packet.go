// Package ht models the HyperTransport link protocol at the level the
// TCCluster paper depends on: sized read/write commands, posted and
// non-posted semantics, three virtual channels with credit-based flow
// control, link serialization timing derived from width and clock, and
// the link-training state machine that the TCCluster firmware abuses to
// force a processor-to-processor link into non-coherent mode.
//
// The packet formats follow the HyperTransport I/O Link Specification
// rev 3.10 in spirit: 4-byte and 8-byte control packets, dword-granular
// data payloads up to 64 bytes, UnitID/SrcTag based response matching.
// Fields that the mechanisms in this repository never consume (e.g.
// compat bit, isoc) are omitted rather than modeled as dead weight.
package ht

import (
	"fmt"

	"repro/internal/sim"
)

// Command identifies an HT packet type. The numeric values follow the
// 6-bit command encodings of the HT specification where one exists;
// coherent-fabric commands (probes and friends) use the extended space.
type Command uint8

// Non-coherent command set (HT I/O spec §4).
const (
	CmdNop       Command = 0x00 // flow-control/credit carrier
	CmdFlush     Command = 0x02 // flush posted channel to memory
	CmdWrPosted  Command = 0x08 // sized write, posted (bit3 set = posted)
	CmdWrNP      Command = 0x0C // sized write, non-posted
	CmdRdSized   Command = 0x10 // sized read request
	CmdRdResp    Command = 0x30 // read response (carries data)
	CmdTgtDone   Command = 0x33 // target done (non-posted write completion)
	CmdBroadcast Command = 0x3A // broadcast (interrupts, system management)
	CmdFence     Command = 0x3C // fence posted traffic across streams
	CmdSync      Command = 0x3F // link synchronization / reset flood
)

// Coherent command set (simplified from the Opteron coherent fabric).
// These never appear on a link trained non-coherent; the IO bridge
// converts between the two worlds.
const (
	CmdCRdBlk    Command = 0x44 // coherent read block
	CmdCWrBlk    Command = 0x45 // coherent write/victim block
	CmdProbe     Command = 0x46 // probe broadcast to caches
	CmdProbeResp Command = 0x47 // probe response (clean/dirty)
	CmdCRdResp   Command = 0x48 // coherent read response (data)
	CmdSrcDone   Command = 0x49 // source done (transaction retire)
	CmdCTgtStart Command = 0x4A // target start (ordering hint)
)

// String returns the mnemonic for the command.
func (c Command) String() string {
	switch c {
	case CmdNop:
		return "Nop"
	case CmdFlush:
		return "Flush"
	case CmdWrPosted:
		return "WrPosted"
	case CmdWrNP:
		return "WrNP"
	case CmdRdSized:
		return "RdSized"
	case CmdRdResp:
		return "RdResp"
	case CmdTgtDone:
		return "TgtDone"
	case CmdBroadcast:
		return "Broadcast"
	case CmdFence:
		return "Fence"
	case CmdSync:
		return "Sync"
	case CmdCRdBlk:
		return "CRdBlk"
	case CmdCWrBlk:
		return "CWrBlk"
	case CmdProbe:
		return "Probe"
	case CmdProbeResp:
		return "ProbeResp"
	case CmdCRdResp:
		return "CRdResp"
	case CmdSrcDone:
		return "SrcDone"
	case CmdCTgtStart:
		return "CTgtStart"
	default:
		return fmt.Sprintf("Command(0x%02X)", uint8(c))
	}
}

// IsCoherent reports whether the command belongs to the coherent fabric
// command set.
func (c Command) IsCoherent() bool { return c >= CmdCRdBlk && c <= CmdCTgtStart }

// HasAddress reports whether the packet's control header carries an
// address (8-byte header) rather than the 4-byte response-style header.
func (c Command) HasAddress() bool {
	switch c {
	case CmdWrPosted, CmdWrNP, CmdRdSized, CmdBroadcast, CmdFlush, CmdFence,
		CmdCRdBlk, CmdCWrBlk, CmdProbe:
		return true
	}
	return false
}

// HasData reports whether the packet carries a data payload.
func (c Command) HasData() bool {
	switch c {
	case CmdWrPosted, CmdWrNP, CmdRdResp, CmdCWrBlk, CmdCRdResp:
		return true
	}
	return false
}

// VirtualChannel is one of the three HT ordering/deadlock-avoidance
// channels. Packets in the same VC are delivered in order; packets in
// different VCs may pass each other (subject to PassPW rules, which the
// fabric model honors conservatively by never reordering).
type VirtualChannel uint8

const (
	VCPosted    VirtualChannel = iota // posted requests
	VCNonPosted                       // non-posted requests (incl. probes)
	VCResponse                        // responses
	NumVCs
)

func (v VirtualChannel) String() string {
	switch v {
	case VCPosted:
		return "P"
	case VCNonPosted:
		return "NP"
	case VCResponse:
		return "R"
	}
	return fmt.Sprintf("VC(%d)", uint8(v))
}

// VC returns the virtual channel a command travels in.
func (c Command) VC() VirtualChannel {
	switch c {
	case CmdWrPosted, CmdBroadcast, CmdFence, CmdSync, CmdNop:
		return VCPosted
	case CmdWrNP, CmdRdSized, CmdFlush, CmdCRdBlk, CmdCWrBlk, CmdProbe:
		return VCNonPosted
	default:
		return VCResponse
	}
}

// MaxPayload is the largest data payload of a single HT packet: 16
// dwords = 64 bytes, one cache line.
const MaxPayload = 64

// DwordBytes is the granularity of HT data payloads.
const DwordBytes = 4

// Packet is one HyperTransport packet. The wire representation is
// produced by Encode and parsed by Decode; everything else on the struct
// (provenance, timestamps) is simulation bookkeeping that never touches
// the wire.
type Packet struct {
	Cmd    Command
	UnitID uint8  // 5 bits: requester unit within the chain
	SrcTag uint8  // 5 bits: response-matching tag
	SeqID  uint8  // 4 bits: ordered-sequence tag
	PassPW bool   // may pass posted writes (relaxed ordering)
	Addr   uint64 // physical address, 48 bits significant (paper §IV.D)
	Count  uint8  // payload length in dwords minus one (0..15)
	Data   []byte

	// Simulation provenance (not encoded on the wire).
	SrcNode int
	DstNode int

	// OnAccept, if set, fires exactly once when the packet is accepted
	// downstream of its producer — consumed from the egress queue into
	// link serialization, or landed on a local memory controller. The
	// CPU's write-combining model uses it to know when a buffer drains,
	// which is how link backpressure reaches the store pipeline.
	OnAccept func()

	// profT is the profiler's phase-boundary stamp: the virtual time the
	// packet entered the egress queue (Port.Send). Only written when the
	// link carries a profiling handle; reset with the rest of the struct
	// when a pooled packet recycles.
	profT sim.Time

	// Pool bookkeeping (see PacketPool). All zero for packets built by
	// the package-level constructors, which remain heap-allocated.
	// adopted marks a packet whose Data was handed over by its producer
	// and escapes to a consumer callback (read responses): recycling
	// restores the parked scratch buffer instead of reclaiming Data.
	pool     *PacketPool
	nextFree *Packet
	pooled   bool
	adopted  bool
	scratch  []byte
}

// Release returns the packet to its pool, if it came from one. The
// caller must hold the last reference; Release on a constructor-built
// packet is a no-op so terminal consumers can call it unconditionally.
func (p *Packet) Release() {
	if p.pool != nil {
		p.pool.put(p)
	}
}

// Pooled reports whether the packet is owned by a PacketPool.
func (p *Packet) Pooled() bool { return p.pool != nil }

// FromPool reports whether the packet belongs to pp. A terminal
// consumer running in a parallel partition uses this to detect packets
// whose home pool lives in another partition: those must not be
// released here (the owner may be allocating concurrently) but handed
// to the partition's exile list and repatriated at the next barrier.
func (p *Packet) FromPool(pp *PacketPool) bool { return p.pool == pp }

// Accept fires the OnAccept hook once and disarms it.
func (p *Packet) Accept() {
	if p.OnAccept != nil {
		f := p.OnAccept
		p.OnAccept = nil
		f()
	}
}

// PayloadLen returns the data payload length in bytes implied by Count
// for commands that carry data, else 0.
func (p *Packet) PayloadLen() int {
	if !p.Cmd.HasData() {
		return 0
	}
	return (int(p.Count) + 1) * DwordBytes
}

// HeaderLen returns the control-packet length in bytes: 8 for addressed
// commands, 4 for responses and other short forms.
func (p *Packet) HeaderLen() int {
	if p.Cmd.HasAddress() {
		return 8
	}
	return 4
}

// WireLen returns the total number of bytes the packet occupies on the
// link: header plus dword-padded payload.
func (p *Packet) WireLen() int { return p.HeaderLen() + p.PayloadLen() }

// Validate checks the structural invariants a packet must satisfy before
// it may be encoded or injected into a fabric model.
func (p *Packet) Validate() error {
	if p.UnitID > 0x1F {
		return fmt.Errorf("ht: UnitID %d exceeds 5 bits", p.UnitID)
	}
	if p.SrcTag > 0x1F {
		return fmt.Errorf("ht: SrcTag %d exceeds 5 bits", p.SrcTag)
	}
	if p.SeqID > 0x0F {
		return fmt.Errorf("ht: SeqID %d exceeds 4 bits", p.SeqID)
	}
	if p.Count > 0x0F {
		return fmt.Errorf("ht: Count %d exceeds 4 bits", p.Count)
	}
	if p.Addr >= 1<<48 {
		return fmt.Errorf("ht: address %#x exceeds 48-bit physical space", p.Addr)
	}
	if p.Cmd.HasAddress() && p.Addr%DwordBytes != 0 {
		return fmt.Errorf("ht: address %#x not dword-aligned", p.Addr)
	}
	if p.Cmd.HasData() {
		want := (int(p.Count) + 1) * DwordBytes
		if len(p.Data) != want {
			return fmt.Errorf("ht: %s payload %d bytes, Count implies exactly %d",
				p.Cmd, len(p.Data), want)
		}
	} else if len(p.Data) != 0 {
		return fmt.Errorf("ht: %s must not carry a payload", p.Cmd)
	}
	return nil
}

func (p *Packet) String() string {
	if p.Cmd.HasData() {
		return fmt.Sprintf("%s[%s] addr=%#x len=%dB tag=%d", p.Cmd, p.Cmd.VC(), p.Addr, p.PayloadLen(), p.SrcTag)
	}
	if p.Cmd.HasAddress() {
		return fmt.Sprintf("%s[%s] addr=%#x tag=%d", p.Cmd, p.Cmd.VC(), p.Addr, p.SrcTag)
	}
	return fmt.Sprintf("%s[%s] tag=%d", p.Cmd, p.Cmd.VC(), p.SrcTag)
}

// NewPostedWrite builds a posted sized write to addr carrying data.
// len(data) must be a positive multiple of 4 and at most 64; the caller
// owns dword padding (the CPU/WC-buffer model always emits dwords).
func NewPostedWrite(addr uint64, data []byte) (*Packet, error) {
	return newWrite(CmdWrPosted, addr, data)
}

// NewNonPostedWrite builds a non-posted sized write; the target answers
// with TgtDone.
func NewNonPostedWrite(addr uint64, data []byte) (*Packet, error) {
	return newWrite(CmdWrNP, addr, data)
}

func newWrite(cmd Command, addr uint64, data []byte) (*Packet, error) {
	if len(data) == 0 || len(data) > MaxPayload {
		return nil, fmt.Errorf("ht: write payload must be 1..%d bytes, got %d", MaxPayload, len(data))
	}
	if len(data)%DwordBytes != 0 {
		return nil, fmt.Errorf("ht: write payload must be dword-granular, got %d bytes", len(data))
	}
	p := &Packet{
		Cmd:   cmd,
		Addr:  addr,
		Count: uint8(len(data)/DwordBytes - 1),
		Data:  data,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// NewRead builds a sized read request for n bytes at addr.
func NewRead(addr uint64, n int, tag uint8) (*Packet, error) {
	if n <= 0 || n > MaxPayload || n%DwordBytes != 0 {
		return nil, fmt.Errorf("ht: read length must be dword-granular 4..%d, got %d", MaxPayload, n)
	}
	p := &Packet{
		Cmd:    CmdRdSized,
		Addr:   addr,
		Count:  uint8(n/DwordBytes - 1),
		SrcTag: tag,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// NewReadResponse builds the response to a read carrying data, matched
// to the request by tag.
func NewReadResponse(tag uint8, data []byte) (*Packet, error) {
	if len(data) == 0 || len(data) > MaxPayload || len(data)%DwordBytes != 0 {
		return nil, fmt.Errorf("ht: response payload must be dword-granular 4..%d, got %d", MaxPayload, len(data))
	}
	p := &Packet{
		Cmd:    CmdRdResp,
		SrcTag: tag,
		Count:  uint8(len(data)/DwordBytes - 1),
		Data:   data,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
