package ht

import "fmt"

// PacketPool recycles Packet objects through an intrusive free list so
// the steady-state send path allocates nothing. The simulation is
// single-threaded by construction, so a plain list beats sync.Pool: no
// per-P caches, no GC-driven draining, and recycled payload buffers keep
// their capacity.
//
// Ownership rules (see DESIGN.md §10):
//
//   - A packet obtained from Get belongs to exactly one owner at a time;
//     ownership transfers with the packet through queues and links.
//   - The terminal consumer — whoever would otherwise drop the last
//     reference — calls Release. Releasing twice panics.
//   - A read response adopts its payload (ReadResponse): the Data slice
//     escapes to the matching callback and is never reclaimed — put()
//     detaches it and restores the packet's parked scratch buffer, so
//     the struct recycles while the payload's ownership transfers on.
//   - Broadcast fan-out takes one pooled copy per egress (CopyOf); each
//     copy is released by its own terminal consumer.
//   - Release on a non-pooled packet is a no-op, so terminal consumers
//     can release unconditionally.
type PacketPool struct {
	free *Packet
	news uint64 // packets freshly allocated (pool misses)
	gets uint64 // total Get calls
}

// Get returns a zeroed packet owned by the caller. The payload buffer of
// a recycled packet keeps its capacity.
func (pp *PacketPool) Get() *Packet {
	pp.gets++
	p := pp.free
	if p == nil {
		pp.news++
		return &Packet{pool: pp}
	}
	pp.free = p.nextFree
	p.nextFree = nil
	p.pooled = false
	return p
}

// put resets p and links it into the free list. An adopted payload is
// detached — its ownership escaped with the consumer callback — and the
// scratch buffer parked at adoption time comes back as the reusable one.
func (pp *PacketPool) put(p *Packet) {
	if p.pooled {
		panic(fmt.Sprintf("ht: packet %v released twice", p))
	}
	data := p.Data[:0]
	if p.adopted {
		data = p.scratch
	}
	*p = Packet{Data: data, pool: pp, pooled: true}
	p.nextFree = pp.free
	pp.free = p
}

// Stats reports total Get calls and how many missed the free list; the
// difference is recycled packets. Tests use it to prove steady-state
// reuse.
func (pp *PacketPool) Stats() (gets, news uint64) { return pp.gets, pp.news }

// PostedWrite builds a pooled posted sized write, copying data into the
// packet's reusable payload buffer (the caller keeps ownership of data).
func (pp *PacketPool) PostedWrite(addr uint64, data []byte) (*Packet, error) {
	return pp.newWrite(CmdWrPosted, addr, data)
}

// NonPostedWrite builds a pooled non-posted sized write.
func (pp *PacketPool) NonPostedWrite(addr uint64, data []byte) (*Packet, error) {
	return pp.newWrite(CmdWrNP, addr, data)
}

func (pp *PacketPool) newWrite(cmd Command, addr uint64, data []byte) (*Packet, error) {
	if len(data) == 0 || len(data) > MaxPayload {
		return nil, fmt.Errorf("ht: write payload must be 1..%d bytes, got %d", MaxPayload, len(data))
	}
	if len(data)%DwordBytes != 0 {
		return nil, fmt.Errorf("ht: write payload must be dword-granular, got %d bytes", len(data))
	}
	p := pp.Get()
	p.Cmd = cmd
	p.Addr = addr
	p.Count = uint8(len(data)/DwordBytes - 1)
	p.Data = append(p.Data[:0], data...)
	if err := p.Validate(); err != nil {
		p.Release()
		return nil, err
	}
	return p, nil
}

// Read builds a pooled sized read request for n bytes at addr.
func (pp *PacketPool) Read(addr uint64, n int, tag uint8) (*Packet, error) {
	if n <= 0 || n > MaxPayload || n%DwordBytes != 0 {
		return nil, fmt.Errorf("ht: read length must be dword-granular 4..%d, got %d", MaxPayload, n)
	}
	p := pp.Get()
	p.Cmd = CmdRdSized
	p.Addr = addr
	p.Count = uint8(n/DwordBytes - 1)
	p.SrcTag = tag
	if err := p.Validate(); err != nil {
		p.Release()
		return nil, err
	}
	return p, nil
}

// TgtDone builds a pooled target-done completion matched by tag.
func (pp *PacketPool) TgtDone(tag uint8) *Packet {
	p := pp.Get()
	p.Cmd = CmdTgtDone
	p.SrcTag = tag
	return p
}

// ReadResponse builds a pooled read response that adopts data as its
// payload — no copy; the caller hands ownership over, and the slice
// travels on to whatever the matching table's callback does with it.
// The packet's own reusable buffer is parked and restored on Release,
// so the struct recycles even though the payload never comes back.
func (pp *PacketPool) ReadResponse(tag uint8, data []byte) (*Packet, error) {
	if len(data) == 0 || len(data) > MaxPayload || len(data)%DwordBytes != 0 {
		return nil, fmt.Errorf("ht: response payload must be dword-granular 4..%d, got %d", MaxPayload, len(data))
	}
	p := pp.Get()
	p.Cmd = CmdRdResp
	p.SrcTag = tag
	p.Count = uint8(len(data)/DwordBytes - 1)
	p.scratch = p.Data
	p.Data = data
	p.adopted = true
	if err := p.Validate(); err != nil {
		p.Release()
		return nil, err
	}
	return p, nil
}

// ReadResponseBuffer builds a pooled read response carrying n zeroed
// payload bytes in the packet's own reusable buffer, for the producer
// to fill before sending. Unlike ReadResponse the payload does not
// escape: Release reclaims the buffer, so the matching callback copies
// whatever it keeps.
func (pp *PacketPool) ReadResponseBuffer(tag uint8, n int) (*Packet, error) {
	if n <= 0 || n > MaxPayload || n%DwordBytes != 0 {
		return nil, fmt.Errorf("ht: response payload must be dword-granular 4..%d, got %d", MaxPayload, n)
	}
	p := pp.Get()
	p.Cmd = CmdRdResp
	p.SrcTag = tag
	p.Count = uint8(n/DwordBytes - 1)
	p.Data = append(p.Data[:0], make([]byte, n)...)
	if err := p.Validate(); err != nil {
		p.Release()
		return nil, err
	}
	return p, nil
}

// Broadcast builds a pooled broadcast (interrupt-class) packet.
func (pp *PacketPool) Broadcast(addr uint64) *Packet {
	p := pp.Get()
	p.Cmd = CmdBroadcast
	p.Addr = addr
	return p
}

// CopyOf returns a pooled copy of p for fan-out forwarding: each egress
// owns its copy outright, so the OnAccept bookkeeping of one path never
// mutates a packet another partition is concurrently delivering. The
// payload (empty for broadcasts, the only fan-out traffic) is copied
// into the pooled buffer so the copy's lifetime is self-contained.
func (pp *PacketPool) CopyOf(p *Packet) *Packet {
	c := pp.Get()
	scratch := c.Data
	*c = *p
	c.pool = pp
	c.nextFree = nil
	c.pooled = false
	c.adopted = false
	c.scratch = nil
	c.OnAccept = nil
	c.Data = append(scratch[:0], p.Data...)
	return c
}
