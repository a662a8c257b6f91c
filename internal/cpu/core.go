package cpu

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/nb"
	"repro/internal/prof"
	"repro/internal/sim"
)

// ErrStranded is returned for operations that on real hardware would
// hang forever: any access requiring a response from across a TCCluster
// link (reads, and write-allocate fills triggered by write-back stores
// to remote memory). The response-matching table cannot route the answer
// home (paper §IV.A), so the model fails fast instead of hanging.
var ErrStranded = errors.New("cpu: access requires a response that cannot cross a TCCluster link")

// Params are the core timing parameters.
type Params struct {
	StoreIssue     sim.Time // per 8-byte store micro-op
	CacheHit       sim.Time // load-to-use latency on a cache hit
	UCReadOverhead sim.Time // core-side overhead added to uncached loads
	SfenceDrain    sim.Time // store-buffer serialization cost of Sfence
	WCBuffers      int      // number of 64-byte write-combining buffers
	CacheLines     int      // cache capacity in 64-byte lines
}

// DefaultParams models a 2.8 GHz Shanghai core: one 8-byte store per
// ~2.8 cycles through the full store pipeline, 8 WC buffers, 4 MB L3.
func DefaultParams() Params {
	return Params{
		StoreIssue:     360 * sim.Picosecond,
		CacheHit:       5 * sim.Nanosecond,
		UCReadOverhead: 30 * sim.Nanosecond,
		SfenceDrain:    29 * sim.Nanosecond,
		WCBuffers:      8,
		CacheLines:     4 << 20 / LineSize,
	}
}

// Counters aggregates core-level event counts.
type Counters struct {
	Stores         uint64
	Loads          uint64
	WCFlushes      uint64 // buffers flushed, any reason
	WCFullFlushes  uint64 // flushed because all 64 bytes were valid
	WCEvictFlushes uint64 // flushed to make room for a new line
	WCFenceFlushes uint64 // flushed by Sfence
	WCPacketsSent  uint64 // posted writes emitted by the WC machinery
	UCStores       uint64 // uncombined stores (one packet each)
	StrandedOps    uint64 // operations that could never complete
	WCStallRetries uint64 // stores that had to wait for a free buffer
}

type wcBuf struct {
	inUse    bool
	draining bool
	line     uint64 // 64-byte-aligned base address
	data     [LineSize]byte
	mask     uint64      // per-byte valid bitmap
	seq      uint64      // allocation order, for oldest-first eviction
	t0       sim.Time    // allocation time, for flush-latency attribution
	pending  int         // flush packets awaiting downstream acceptance
	onPkt    func(error) // prebuilt per-buffer packet completion
}

// Core is one processor core issuing loads and stores through the MTRRs,
// cache and write-combining buffers into a northbridge.
type Core struct {
	eng  *sim.Engine
	node *nb.Northbridge
	par  Params

	mtrr  *MTRR
	cache *Cache
	issue sim.Server

	wc       []wcBuf
	wcSeq    uint64
	prof     *prof.NodeProf
	profD    sim.Time   // counted-constant issue time (uncontended 64B store)
	inflight int        // WC/UC posted writes awaiting downstream acceptance
	stalled  []*stRec   // stores waiting for a free WC buffer
	stHead   int        // drained prefix of stalled (backing array reused)
	ucFree   *ucRec     // free list of uncached-load records
	strFree  *streamRec // free list of multi-line stream-load records
	stFree   *stRec     // free list of store-issue records
	blkFree  *blkRec    // free list of block-store records

	cnt Counters
}

// stRec carries one store from issue to its WC merge or UC emission:
// the data is staged in an inline array and the record is pooled, so a
// steady-state store allocates nothing. Stalled WC stores park the
// same record on c.stalled until a buffer frees; UC stores step the
// record through one posted write per 8-byte micro-op via the onUC
// continuation (built once per record, survives recycling).
type stRec struct {
	next    *stRec
	addr    uint64
	n       int
	off     int // UC emission progress
	data    [LineSize]byte
	retired func(error)
	onUC    func(error)
}

func (c *Core) getSt() *stRec {
	rec := c.stFree
	if rec == nil {
		return &stRec{}
	}
	c.stFree = rec.next
	rec.next = nil
	return rec
}

func (c *Core) putSt(rec *stRec) {
	rec.retired = nil
	rec.next = c.stFree
	c.stFree = rec
}

// blkRec carries one StoreBlock through its per-line steps. The step
// continuation is built once per record and survives recycling, so a
// steady-state block store allocates nothing in the splitting layer.
type blkRec struct {
	next *blkRec
	addr uint64
	data []byte
	off  int
	done func(error)
	step func(error)
}

func (c *Core) getBlk() *blkRec {
	rec := c.blkFree
	if rec == nil {
		rec = &blkRec{}
		rec.step = func(err error) {
			if err != nil || rec.off >= len(rec.data) {
				done := rec.done
				c.putBlk(rec)
				done(err)
				return
			}
			off := rec.off
			end := off + LineSize - int((rec.addr+uint64(off))%LineSize)
			if end > len(rec.data) {
				end = len(rec.data)
			}
			rec.off = end
			c.Store(rec.addr+uint64(off), rec.data[off:end], rec.step)
		}
		return rec
	}
	c.blkFree = rec.next
	rec.next = nil
	return rec
}

func (c *Core) putBlk(rec *blkRec) {
	rec.data, rec.done = nil, nil
	rec.next = c.blkFree
	c.blkFree = rec
}

// ucRec carries one in-flight uncached load: the caller's callback plus
// the DRAM result parked while the UC read overhead elapses. The read
// lands in the record's inline line buffer, records are pooled, and the
// completion closure is built once per record (it survives recycles),
// so a steady-state poll loop allocates nothing here — the receive path
// is one of these per ring peek. The record recycles only after the
// caller's callback returns, which is how long the data stays valid.
type ucRec struct {
	next *ucRec
	cb   func([]byte, error)
	line [LineSize]byte
	data []byte
	err  error
	done func([]byte, error)
}

func (c *Core) getUC() *ucRec {
	rec := c.ucFree
	if rec == nil {
		rec = &ucRec{}
		rec.done = func(data []byte, err error) {
			rec.data, rec.err = data, err
			c.eng.ScheduleAfter(c.par.UCReadOverhead, c, sim.EventArg{Ptr: rec, I: cpuOpUCLoad})
		}
		return rec
	}
	c.ucFree = rec.next
	rec.next = nil
	return rec
}

func (c *Core) putUC(rec *ucRec) {
	rec.cb, rec.data, rec.err = nil, nil, nil
	rec.next = c.ucFree
	c.ucFree = rec
}

// Event opcodes carried in sim.EventArg.I.
const (
	cpuOpUCLoad     int64 = iota // uncached-load overhead elapsed; arg.Ptr is *ucRec
	cpuOpWCStore                 // store issue reached the WC stage; arg.Ptr is *stRec
	cpuOpUCStore                 // store issue reached the UC emit stage; arg.Ptr is *stRec
	cpuOpStreamDone              // stream-load overhead elapsed; arg.Ptr is *streamRec
)

// OnEvent dispatches the core's typed events.
func (c *Core) OnEvent(_ *sim.Engine, arg sim.EventArg) {
	switch arg.I {
	case cpuOpUCLoad:
		rec := arg.Ptr.(*ucRec)
		rec.cb(rec.data, rec.err)
		c.putUC(rec)
	case cpuOpStreamDone:
		rec := arg.Ptr.(*streamRec)
		rec.done(rec.buf, rec.failed)
		c.putStream(rec)
	case cpuOpWCStore:
		c.wcMerge(arg.Ptr.(*stRec))
	case cpuOpUCStore:
		rec := arg.Ptr.(*stRec)
		off := rec.off
		end := off + 8
		if end > rec.n {
			end = rec.n
		}
		rec.off = end
		c.inflight++
		c.node.CPUWrite(rec.addr+uint64(off), rec.data[off:end], true, rec.onUC)
	}
}

// SetEngine rebinds the core onto a partition engine; called while
// quiescent, before a parallel run starts.
func (c *Core) SetEngine(e *sim.Engine) { c.eng = e }

// SetProfiler installs this node's phase-attribution handle. Nil
// disables profiling; every observation site is a single nil check.
func (c *Core) SetProfiler(np *prof.NodeProf) {
	c.prof = np
	if np != nil {
		// Issue fast path: an uncontended full-line (64-byte) store.
		c.profD = c.issueTime(64)
		np.SetConst(prof.NodeCPUIssue, c.profD)
	}
}

// profIssue attributes one trip through the store-issue server: wait
// behind earlier micro-ops plus the issue service itself.
func (c *Core) profIssue(now, at sim.Time) {
	if np := c.prof; np != nil {
		if at-now == c.profD {
			np.AddConst(prof.NodeCPUIssue)
		} else {
			np.Observe(prof.NodeCPUIssue, at-now)
		}
	}
}

// NewCore creates a core attached to node. The MTRR default type is
// Uncacheable, as on real parts: firmware must explicitly map DRAM as WB
// and the TCCluster window as WC.
func NewCore(eng *sim.Engine, node *nb.Northbridge, par Params) *Core {
	if par.WCBuffers <= 0 {
		par.WCBuffers = 8
	}
	if par.CacheLines <= 0 {
		par.CacheLines = 4 << 20 / LineSize
	}
	c := &Core{
		eng:   eng,
		node:  node,
		par:   par,
		mtrr:  NewMTRR(Uncacheable),
		cache: NewCache(par.CacheLines),
		wc:    make([]wcBuf, par.WCBuffers),
	}
	for i := range c.wc {
		// Per-buffer flush completion, built once: the buffer is not
		// reused until freeWC, so the captured pointer stays valid.
		b := &c.wc[i]
		b.onPkt = func(error) {
			c.inflight--
			b.pending--
			if b.pending == 0 {
				c.freeWC(b)
			}
		}
	}
	return c
}

// MTRR exposes the memory-type registers for firmware programming.
func (c *Core) MTRR() *MTRR { return c.mtrr }

// Cache exposes the core's private cache model (tests inspect it).
func (c *Core) Cache() *Cache { return c.cache }

// Node returns the attached northbridge.
func (c *Core) Node() *nb.Northbridge { return c.node }

// Counters returns a copy of the counters.
func (c *Core) Counters() Counters { return c.cnt }

// WCInUse reports how many write-combining buffers hold data.
func (c *Core) WCInUse() int {
	n := 0
	for i := range c.wc {
		if c.wc[i].inUse {
			n++
		}
	}
	return n
}

func (c *Core) issueTime(n int) sim.Time {
	ops := sim.Time((n + 7) / 8)
	return ops * c.par.StoreIssue
}

// Store issues one store of data at addr. The store must be dword
// aligned, a dword multiple, and must not cross a 64-byte line (use
// StoreBlock for arbitrary extents). retired fires when the store
// retires from the pipeline's perspective:
//
//   - WB: data is in the cache/local memory
//   - WC: data is merged into a write-combining buffer (or the store has
//     waited for a free buffer)
//   - UC: the resulting posted write was accepted downstream
func (c *Core) Store(addr uint64, data []byte, retired func(error)) {
	if err := checkAccess(addr, len(data)); err != nil {
		retired(err)
		return
	}
	c.cnt.Stores++
	switch c.mtrr.TypeOf(addr) {
	case WriteBack:
		c.storeWB(addr, data, retired)
	case WriteCombining:
		c.storeWC(addr, data, retired)
	default:
		c.storeUC(addr, data, retired)
	}
}

func checkAccess(addr uint64, n int) error {
	if n == 0 || n > LineSize {
		return fmt.Errorf("cpu: access of %d bytes (want 1..%d)", n, LineSize)
	}
	if addr%4 != 0 || n%4 != 0 {
		return fmt.Errorf("cpu: access at %#x/%d not dword-granular", addr, n)
	}
	if addr/LineSize != (addr+uint64(n)-1)/LineSize {
		return fmt.Errorf("cpu: access at %#x/%d crosses a cache line", addr, n)
	}
	return nil
}

// coherentRoute reports whether addr is remote DRAM reachable over a
// coherent link: another socket of the same board. Coherent links carry
// responses (NodeIDs are distinct inside the domain), so loads and
// write-back stores work; non-coherent TCCluster routes do not.
func (c *Core) coherentRoute(d nb.Decision) bool {
	return d.Kind == nb.DecideRouteLink && !d.MMIO &&
		c.node.LinkIsCoherent(int(d.Link))
}

// storeWB writes through the cache into coherent memory: the local
// socket's DRAM directly, or a sibling socket's DRAM across a coherent
// link. A WB store to a TCCluster address would trigger a write-
// allocate line fill whose read response cannot come home: stranded.
func (c *Core) storeWB(addr uint64, data []byte, retired func(error)) {
	d := c.node.DecodeAddress(addr)
	switch {
	case d.Kind == nb.DecideLocalDRAM:
		buf := append([]byte(nil), data...)
		now := c.eng.Now()
		_, at := c.issue.Schedule(now, c.issueTime(len(buf)))
		c.profIssue(now, at)
		c.eng.At(at, func() {
			line := addr &^ (LineSize - 1)
			c.cache.Update(line, int(addr-line), buf)
			mc := c.node.MemController()
			retired(mc.Memory().Write(addr-mc.Base(), buf))
		})
	case c.coherentRoute(d):
		// Cross-socket coherent store: write-through over the fabric.
		buf := append([]byte(nil), data...)
		now := c.eng.Now()
		_, at := c.issue.Schedule(now, c.issueTime(len(buf)))
		c.profIssue(now, at)
		c.eng.At(at, func() {
			line := addr &^ (LineSize - 1)
			c.cache.Update(line, int(addr-line), buf)
			c.node.CPUWrite(addr, buf, true, retired)
		})
	default:
		c.cnt.StrandedOps++
		retired(fmt.Errorf("%w: WB store to non-coherent address %#x", ErrStranded, addr))
	}
}

// storeUC emits posted writes with no combining: one packet per 8-byte
// store micro-op, strongly ordered (each store waits for downstream
// acceptance of the previous one). This is the ablation path showing why
// write combining matters (paper §VI: "multiple 64 bit store
// instructions are collected in the write combining buffer and sent out
// as a single packet").
func (c *Core) storeUC(addr uint64, data []byte, retired func(error)) {
	rec := c.getSt()
	rec.addr, rec.n, rec.off, rec.retired = addr, len(data), 0, retired
	copy(rec.data[:], data)
	if rec.onUC == nil {
		rec.onUC = func(err error) {
			c.inflight--
			if err != nil || rec.off >= rec.n {
				done := rec.retired
				c.putSt(rec)
				done(err)
				return
			}
			c.ucIssue(rec)
		}
	}
	c.ucIssue(rec)
}

// ucIssue pushes rec's next 8-byte micro-op through the issue server;
// the cpuOpUCStore event emits the posted write when issue completes.
func (c *Core) ucIssue(rec *stRec) {
	n := rec.n - rec.off
	if n > 8 {
		n = 8
	}
	c.cnt.UCStores++
	now := c.eng.Now()
	_, at := c.issue.Schedule(now, c.issueTime(n))
	c.profIssue(now, at)
	c.eng.Schedule(at, c, sim.EventArg{Ptr: rec, I: cpuOpUCStore})
}

// storeWC merges the store into a write-combining buffer, flushing a
// full buffer immediately as one maximum-sized posted write. The data
// is staged synchronously into a pooled record, so the caller's buffer
// is free for reuse the moment storeWC returns.
func (c *Core) storeWC(addr uint64, data []byte, retired func(error)) {
	rec := c.getSt()
	rec.addr, rec.n, rec.retired = addr, len(data), retired
	copy(rec.data[:], data)
	now := c.eng.Now()
	_, at := c.issue.Schedule(now, c.issueTime(len(data)))
	c.profIssue(now, at)
	c.eng.Schedule(at, c, sim.EventArg{Ptr: rec, I: cpuOpWCStore})
}

func (c *Core) wcMerge(rec *stRec) {
	line := rec.addr &^ (LineSize - 1)
	b := c.findWC(line)
	if b == nil {
		// No buffer for this line and none free: flush the oldest
		// partial buffer and retry when something drains.
		c.flushOldest()
		c.cnt.WCStallRetries++
		c.stalled = append(c.stalled, rec)
		return
	}
	if !b.inUse {
		b.inUse = true
		b.draining = false
		b.line = line
		b.mask = 0
		c.wcSeq++
		b.seq = c.wcSeq
		b.t0 = c.eng.Now()
	}
	off := int(rec.addr - line)
	copy(b.data[off:], rec.data[:rec.n])
	b.mask |= (uint64(1)<<rec.n - 1) << off // rec.n == 64 wraps to all ones
	retired := rec.retired
	c.putSt(rec)
	if b.mask == ^uint64(0) {
		c.cnt.WCFullFlushes++
		c.flushWCBuf(b)
	}
	retired(nil)
}

// findWC returns the buffer already collecting line, or a free one, or
// nil if the store must wait.
func (c *Core) findWC(line uint64) *wcBuf {
	var free *wcBuf
	for i := range c.wc {
		b := &c.wc[i]
		if b.inUse && !b.draining && b.line == line {
			return b
		}
		if !b.inUse && free == nil {
			free = b
		}
	}
	return free
}

func (c *Core) flushOldest() {
	var oldest *wcBuf
	for i := range c.wc {
		b := &c.wc[i]
		if b.inUse && !b.draining && (oldest == nil || b.seq < oldest.seq) {
			oldest = b
		}
	}
	if oldest != nil {
		c.cnt.WCEvictFlushes++
		c.flushWCBuf(oldest)
	}
}

// flushWCBuf emits the buffer's valid bytes as posted writes — one
// packet per contiguous dword run (a sequentially filled buffer is a
// single 64-byte packet). The buffer stays occupied until every packet
// is accepted downstream; that occupancy is how link backpressure
// throttles the store pipeline.
func (c *Core) flushWCBuf(b *wcBuf) {
	if !b.inUse || b.draining {
		return
	}
	b.draining = true
	c.cnt.WCFlushes++
	var runs [maxMaskRuns][2]int
	nr := maskRuns(b.mask, &runs)
	if nr == 0 {
		c.freeWC(b)
		return
	}
	b.pending = nr
	for _, r := range runs[:nr] {
		// CPUWrite copies the data into its packet before returning, so
		// the buffer's bytes can be handed over without a staging copy.
		data := b.data[r[0]:r[1]]
		addr := b.line + uint64(r[0])
		c.inflight++
		c.cnt.WCPacketsSent++
		c.node.CPUWrite(addr, data, true, b.onPkt)
	}
}

func (c *Core) freeWC(b *wcBuf) {
	if np := c.prof; np != nil {
		// Buffer lifetime: first merged store to last packet accepted.
		np.Observe(prof.NodeWCFlush, c.eng.Now()-b.t0)
	}
	b.inUse = false
	b.draining = false
	b.mask = 0
	// Wake exactly one stalled store per freed buffer, preserving order.
	// The queue drains by head index so its backing array is reused — a
	// stall-heavy store stream would otherwise reallocate it per store.
	if c.stHead < len(c.stalled) {
		next := c.stalled[c.stHead]
		c.stalled[c.stHead] = nil
		c.stHead++
		if c.stHead == len(c.stalled) {
			c.stHead = 0
			c.stalled = c.stalled[:0]
		}
		c.wcMerge(next)
	}
}

// maxMaskRuns bounds the runs in any 64-bit mask: alternating set and
// clear bits. (Dword-granular store masks need at most 8, but sizing
// for the general case keeps maskRuns total.)
const maxMaskRuns = 32

// maskRuns decomposes a byte-valid bitmap into [start,end) runs aligned
// to dwords (stores are dword-granular, so runs always are), filling
// the caller's fixed array and returning the count — no allocation.
func maskRuns(mask uint64, runs *[maxMaskRuns][2]int) int {
	n := 0
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		j := i + bits.TrailingZeros64(^(mask >> i)) // zeros shift in, so j <= 64
		runs[n] = [2]int{i, j}
		n++
		mask &^= uint64(1)<<j - 1 // j == 64 clears everything
	}
	return n
}

// FlushWC flushes every write-combining buffer without fence semantics
// (what a buffer-overflow eviction storm looks like).
func (c *Core) FlushWC() {
	for i := range c.wc {
		if c.wc[i].inUse && !c.wc[i].draining {
			c.flushWCBuf(&c.wc[i])
		}
	}
}

// Sfence flushes the write-combining buffers and serializes the store
// pipeline: done fires after every prior store has been pushed into the
// fabric and the drain penalty has elapsed. HyperTransport's in-order
// posted channel then guarantees global ordering (paper §IV.A), so the
// fence does not wait for remote completion.
func (c *Core) Sfence(done func()) {
	for i := range c.wc {
		if c.wc[i].inUse && !c.wc[i].draining {
			c.cnt.WCFenceFlushes++
			c.flushWCBuf(&c.wc[i])
		}
	}
	c.eng.After(c.par.SfenceDrain, done)
}

// Load issues a read of n bytes at addr. Loads follow the MTRR type:
// WB loads may hit (possibly stale) cache lines; UC loads always read
// DRAM — the only correct way to poll a TCCluster receive buffer. The
// data cb receives is borrowed: it is valid only until cb returns, and
// a caller that keeps it must copy it.
func (c *Core) Load(addr uint64, n int, cb func([]byte, error)) {
	if err := checkAccess(addr, n); err != nil {
		cb(nil, err)
		return
	}
	c.cnt.Loads++
	switch c.mtrr.TypeOf(addr) {
	case WriteBack:
		c.loadWB(addr, n, cb)
	case WriteCombining:
		// Reads from WC space flush the affected buffer, then behave UC.
		line := addr &^ (LineSize - 1)
		for i := range c.wc {
			if c.wc[i].inUse && !c.wc[i].draining && c.wc[i].line == line {
				c.flushWCBuf(&c.wc[i])
			}
		}
		c.loadUC(addr, n, cb)
	default:
		c.loadUC(addr, n, cb)
	}
}

func (c *Core) loadWB(addr uint64, n int, cb func([]byte, error)) {
	line := addr &^ (LineSize - 1)
	off := int(addr - line)
	if data, ok := c.cache.Lookup(line); ok {
		out := append([]byte(nil), data[off:off+n]...)
		c.eng.After(c.par.CacheHit, func() { cb(out, nil) })
		return
	}
	if d := c.node.DecodeAddress(line); d.Kind != nb.DecideLocalDRAM && !c.coherentRoute(d) {
		c.cnt.StrandedOps++
		cb(nil, fmt.Errorf("%w: WB load from non-coherent address %#x", ErrStranded, addr))
		return
	}
	c.node.CPURead(line, make([]byte, LineSize), func(data []byte, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		c.cache.Install(line, data)
		cb(data[off:off+n], nil)
	})
}

func (c *Core) loadUC(addr uint64, n int, cb func([]byte, error)) {
	if d := c.node.DecodeAddress(addr); d.Kind != nb.DecideLocalDRAM && !c.coherentRoute(d) {
		c.cnt.StrandedOps++
		cb(nil, fmt.Errorf("%w: UC load from non-coherent address %#x", ErrStranded, addr))
		return
	}
	rec := c.getUC()
	rec.cb = cb
	c.node.CPURead(addr, rec.line[:n], rec.done)
}

// StoreBlock stores an arbitrary dword-granular extent, splitting it
// into per-line stores issued back to back. done fires when the last
// store retires. The splitting state rides a pooled record whose step
// continuation is built once, so the block layer allocates nothing;
// data must stay valid until done fires (each line's bytes are staged
// synchronously when its store issues).
func (c *Core) StoreBlock(addr uint64, data []byte, done func(error)) {
	if len(data) == 0 {
		done(nil)
		return
	}
	rec := c.getBlk()
	rec.addr, rec.data, rec.off, rec.done = addr, data, 0, done
	rec.step(nil)
}

// StreamDepth is how many outstanding line reads LoadStream pipelines:
// the model of SSE4.1 MOVNTDQA streaming loads, which (unlike plain
// uncached loads) may overlap their memory accesses.
const StreamDepth = 4

// streamRec carries one multi-line LoadStream. Every line-bounded chunk
// reads straight into its own offset of the reusable assembly buffer,
// so a chunk completion needs no per-chunk state: one continuation,
// built once per record, retires whichever chunk finished and issues
// the next. Records are pooled and the final overhead is a typed
// event, so a steady-state stream load allocates nothing once the
// buffer has grown to the extent size.
type streamRec struct {
	next      *streamRec
	addr      uint64
	buf       []byte // assembly buffer (capacity reused)
	off       int    // offset of the next chunk to issue
	pending   int    // chunk reads in flight
	failed    error
	done      func([]byte, error)
	chunkDone func([]byte, error)
}

func (c *Core) getStream() *streamRec {
	rec := c.strFree
	if rec == nil {
		rec = &streamRec{}
		rec.chunkDone = func(_ []byte, err error) {
			rec.pending--
			if err != nil && rec.failed == nil {
				rec.failed = err
			}
			if rec.pending == 0 && rec.off >= len(rec.buf) {
				c.eng.ScheduleAfter(c.par.UCReadOverhead, c, sim.EventArg{Ptr: rec, I: cpuOpStreamDone})
				return
			}
			c.streamPump(rec)
		}
		return rec
	}
	c.strFree = rec.next
	rec.next = nil
	return rec
}

func (c *Core) putStream(rec *streamRec) {
	rec.done, rec.failed = nil, nil
	rec.next = c.strFree
	c.strFree = rec
}

// streamPump issues line-bounded chunk reads until StreamDepth are in
// flight or the extent is exhausted.
func (c *Core) streamPump(rec *streamRec) {
	n := len(rec.buf)
	for rec.pending < StreamDepth && rec.off < n {
		off := rec.off
		end := off + LineSize - int((rec.addr+uint64(off))%LineSize)
		if end > n {
			end = n
		}
		rec.off = end
		rec.pending++
		c.cnt.Loads++
		c.node.CPURead(rec.addr+uint64(off), rec.buf[off:end], rec.chunkDone)
	}
}

// LoadStream reads an extent with up to StreamDepth line reads in
// flight — the streaming-load receive path. Ordinary UC loads serialize
// one at a time (Load/LoadBlock); streaming loads quadruple copy-out
// throughput, which is how real polling receivers drain their rings
// without starving. Only valid on uncached/write-combining regions and
// local (or coherently routed) memory. As with Load, the data done
// receives is borrowed: it is valid only until done returns.
func (c *Core) LoadStream(addr uint64, n int, done func([]byte, error)) {
	if n <= 0 || addr%4 != 0 || n%4 != 0 {
		done(nil, fmt.Errorf("cpu: stream load at %#x/%d not dword-granular", addr, n))
		return
	}
	if t := c.mtrr.TypeOf(addr); t == WriteBack {
		done(nil, fmt.Errorf("cpu: stream load from WB memory at %#x (use LoadBlock)", addr))
		return
	}
	if d := c.node.DecodeAddress(addr); d.Kind != nb.DecideLocalDRAM && !c.coherentRoute(d) {
		c.cnt.StrandedOps++
		done(nil, fmt.Errorf("%w: stream load from non-coherent address %#x", ErrStranded, addr))
		return
	}
	if int(addr%LineSize)+n <= LineSize {
		// Single-line extent: one read, no chunk bookkeeping. The pooled
		// uncached-load record applies the same fixed read overhead, so
		// short stream reads (a ring frame's tail) stay allocation-free.
		c.cnt.Loads++
		rec := c.getUC()
		rec.cb = done
		c.node.CPURead(addr, rec.line[:n], rec.done)
		return
	}
	rec := c.getStream()
	if cap(rec.buf) < n {
		rec.buf = make([]byte, n)
	}
	rec.addr, rec.buf, rec.off, rec.done = addr, rec.buf[:n], 0, done
	c.streamPump(rec)
}

// LoadBlock reads an arbitrary dword-granular extent line by line.
func (c *Core) LoadBlock(addr uint64, n int, done func([]byte, error)) {
	if n > 0 && int(addr%LineSize)+n <= LineSize {
		// Single-line extent: one Load, no assembly buffer, and the data
		// is borrowed exactly as Load's is. Ring frames are line-aligned,
		// so the receiver's poll peek always takes this path and stays
		// allocation-free.
		c.Load(addr, n, done)
		return
	}
	out := make([]byte, 0, n)
	var step func(off int)
	step = func(off int) {
		if off >= n {
			done(out, nil)
			return
		}
		end := off + LineSize - int((addr+uint64(off))%LineSize)
		if end > n {
			end = n
		}
		c.Load(addr+uint64(off), end-off, func(data []byte, err error) {
			if err != nil {
				done(nil, err)
				return
			}
			out = append(out, data...)
			step(end)
		})
	}
	step(0)
}
