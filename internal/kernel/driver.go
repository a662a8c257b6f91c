package kernel

import (
	"fmt"

	"repro/internal/cpu"
)

// WindowKind distinguishes the two mapping flavors the driver offers.
type WindowKind int

const (
	// RemoteWindow maps another node's memory as write-only MMIO: the
	// send side of TCCluster.
	RemoteWindow WindowKind = iota
	// LocalWindow maps this node's own UC receive region: the poll/read
	// side.
	LocalWindow
)

// Window is a user-space mapping handed out by the TCCluster driver.
// Remote windows are write-only (reads cannot cross the network,
// §IV.A); local windows are read/write and always uncachable.
type Window struct {
	kernel *Kernel
	kind   WindowKind
	peer   int    // remote node index (RemoteWindow only)
	base   uint64 // global physical base address of the mapping
	size   uint64
}

// MapRemote maps [off, off+size) of peer's memory into this node's user
// space. Offsets and sizes are page-granular, and the peer's driver
// export policy is enforced: mapping outside the peer's exported range
// fails with a permission error.
func (k *Kernel) MapRemote(peer int, off, size uint64) (*Window, error) {
	if peer < 0 || peer >= k.os.cluster.N() {
		return nil, fmt.Errorf("kernel: no such node %d", peer)
	}
	if peer == k.node.Index() {
		return nil, fmt.Errorf("kernel: MapRemote of self; use MapLocal")
	}
	if off%PageSize != 0 || size == 0 || size%PageSize != 0 {
		return nil, fmt.Errorf("kernel: remote mapping [%#x,+%#x) not page granular", off, size)
	}
	exp := k.os.kernels[peer].opt
	if off < exp.ExportLo || off+size > exp.ExportHi {
		return nil, fmt.Errorf("kernel: node %d exports [%#x,%#x); mapping [%#x,+%#x) denied",
			peer, exp.ExportLo, exp.ExportHi, off, size)
	}
	k.mappings++
	return &Window{
		kernel: k,
		kind:   RemoteWindow,
		peer:   peer,
		base:   k.os.cluster.GlobalBase(peer) + off,
		size:   size,
	}, nil
}

// MapLocal maps [off, off+size) of this node's own memory for receiving.
// The region must lie inside the firmware's UC window: a cachable
// receive buffer polls stale lines forever (§VI), so the driver refuses
// to create one.
func (k *Kernel) MapLocal(off, size uint64) (*Window, error) {
	if off%PageSize != 0 || size == 0 || size%PageSize != 0 {
		return nil, fmt.Errorf("kernel: local mapping [%#x,+%#x) not page granular", off, size)
	}
	uc := k.os.cluster.Config().UCWindow
	if off+size > uc {
		return nil, fmt.Errorf("kernel: local mapping [%#x,+%#x) outside the UC receive window (%#x) — cachable receive buffers are forbidden",
			off, size, uc)
	}
	k.mappings++
	return &Window{
		kernel: k,
		kind:   LocalWindow,
		base:   k.node.MemBase() + off,
		size:   size,
	}, nil
}

// Close tears the mapping down: subsequent accesses fail. (The UC
// window allocation behind it is not reclaimed — the bump allocator
// mirrors the driver's boot-time carving, not a general heap.)
func (w *Window) Close() {
	if w.size == 0 {
		return
	}
	w.size = 0
	w.kernel.mappings--
}

// Kind returns the mapping flavor.
func (w *Window) Kind() WindowKind { return w.kind }

// Size returns the mapping length in bytes.
func (w *Window) Size() uint64 { return w.size }

// Addr returns the global physical address of offset off within the
// window (the model identity-maps user virtual to physical).
func (w *Window) Addr(off uint64) uint64 { return w.base + off }

// Peer returns the remote node of a RemoteWindow (-1 for local).
func (w *Window) Peer() int {
	if w.kind != RemoteWindow {
		return -1
	}
	return w.peer
}

func (w *Window) check(off uint64, n int) error {
	if n < 0 || off > w.size || uint64(n) > w.size-off {
		return fmt.Errorf("kernel: access [%#x,+%d) outside %#x-byte window", off, n, w.size)
	}
	return nil
}

// core returns the CPU core that executes this node's user space.
func (w *Window) core() *cpu.Core { return w.kernel.node.Core() }

// Write stores data at window offset off. On a remote window this is
// the TCCluster send primitive: write-combined posted stores.
func (w *Window) Write(off uint64, data []byte, done func(error)) {
	if err := w.check(off, len(data)); err != nil {
		done(err)
		return
	}
	w.core().StoreBlock(w.base+off, data, done)
}

// Sync drains the write-combining buffers and serializes prior stores
// (the Sfence of §VI).
func (w *Window) Sync(done func()) { w.core().Sfence(done) }

// WatchWrites registers a watch on [off, off+size) of a local window:
// fn fires with the store's global physical address and size whenever
// a remote store into the range becomes visible in this node's DRAM.
// Remote windows refuse — a watch on another node's memory would
// require reads across the link. The returned function removes the
// watch.
func (w *Window) WatchWrites(off, size uint64, fn func(addr uint64, nBytes int)) (func(), error) {
	if w.kind != LocalWindow {
		return nil, fmt.Errorf("kernel: write watch on a remote window")
	}
	if err := w.check(off, int(size)); err != nil {
		return nil, err
	}
	return w.kernel.node.WatchWrites(w.base-w.kernel.node.MemBase()+off, size, fn)
}

// Read loads n bytes at window offset off. Remote windows refuse: reads
// cannot cross a TCCluster link. The data cb receives is borrowed from
// the load path and is valid only until cb returns; copy it to keep it.
func (w *Window) Read(off uint64, n int, cb func([]byte, error)) {
	if w.kind == RemoteWindow {
		cb(nil, fmt.Errorf("kernel: %w", cpu.ErrStranded))
		return
	}
	if err := w.check(off, n); err != nil {
		cb(nil, err)
		return
	}
	w.core().LoadBlock(w.base+off, n, cb)
}

// ReadStream is Read with pipelined streaming loads (MOVNTDQA-class):
// several line reads in flight, for draining bulk data out of the
// uncachable receive region at useful bandwidth. Its data is borrowed
// exactly as Read's is.
func (w *Window) ReadStream(off uint64, n int, cb func([]byte, error)) {
	if w.kind == RemoteWindow {
		cb(nil, fmt.Errorf("kernel: %w", cpu.ErrStranded))
		return
	}
	if err := w.check(off, n); err != nil {
		cb(nil, err)
		return
	}
	w.core().LoadStream(w.base+off, n, cb)
}
