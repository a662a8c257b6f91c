package sim

import (
	"fmt"
	"math/bits"
	"slices"
)

// This file implements the engine's event queue: a two-tier ladder queue
// over an index-addressed event arena, built so the steady-state
// schedule/fire cycle performs zero heap allocations.
//
// Layout:
//
//   - The *arena* stores every pending event in a flat slice of slots,
//     addressed by int32 ref and recycled through an intrusive free
//     list. A slot holds the payload (Handler + arg) and the event's
//     ordering key. Scheduling never boxes through interface{} the way
//     container/heap did, and a handler that reschedules itself reuses
//     the slot it just vacated.
//
//   - The *near rung* is an array of time buckets, each 2^bucketShift
//     picoseconds wide, covering a window starting at the current
//     bucket. A bucket is a singly linked list of arena slots, newest
//     first, so filing an event writes only its own slot and the
//     bucket's head. When the drain cursor reaches a bucket, its list
//     is copied into the *run*, one contiguous slice, reversed into
//     arrival order and insertion-sorted ascending; pops then advance a
//     head index. Arrival order is scheduling order, which is nearly key
//     order among events that share a fire time, so the sort does little
//     work. An occupancy bitmap makes skipping empty buckets O(1)
//     per word, so sparse schedules don't pay a linear scan.
//
//   - The *far heap* is a 4-ary min-heap on the full key holding events
//     beyond the near window. When the near rung drains, the window
//     jumps to the earliest far event and everything inside the new
//     window migrates into buckets.
//
// Ordering contract: events fire in non-decreasing (at, sat, pri, seq)
// order, where sat is the virtual time of the Schedule call and pri is a
// lineage priority inherited from the event whose handler made that call
// (root events — scheduled from outside any handler — draw fresh
// priorities from a counter in scheduling order). The legacy queue orders
// by the same key, which is what the old-vs-new determinism suite pins
// down. On a single engine sat is non-decreasing in seq (the clock never
// rewinds), so at a fire-time tie only pri can put a later-scheduled
// event first: two lineages firing at one instant and scheduling for the
// same time. The extra keys exist for the parallel executor: a
// cross-partition event arrives through a mailbox with a late local seq,
// and its sender-side stamp and inherited priority are what slot it into
// the same same-timestamp arbitration position a serial run would have
// given it.

const (
	// bucketShift sets the bucket width: 2^7 ps = 128 ps, under one
	// HT 16-bit transfer quantum, so events a few hundred picoseconds
	// apart (a link's serialization steps, 512 torus cores stepping in
	// lockstep) land in distinct buckets and a bucket mostly holds one
	// fire time. numBuckets of them make a 524 ns near window, enough
	// for a whole packet's pipeline and a DRAM access.
	bucketShift = 7
	numBuckets  = 4096
	// insertionSortMax is the bucket size up to which the insertion sort
	// always finishes. A larger bucket falls back to slices.SortFunc
	// once its entries have moved insertionSortMax places on average.
	insertionSortMax = 32

	// refBits is the width of the arena ref packed under seq in
	// entry.key: it caps pending events at 2^24 (16.7M) per engine and
	// seq at 2^40 (1.1e12 scheduled events).
	refBits = 24
	refMask = 1<<refBits - 1
)

// entry is one queued event's ordering key plus its arena ref, 32
// bytes. Entries are what move through the run and the far heap; the
// struct is self-contained so sorting and sifting never chase the
// arena. The arena ref rides in the low bits of key under the sequence
// number: seq is unique per engine, so comparing key compares seq.
type entry struct {
	at  Time
	sat Time   // schedule stamp: virtual time of the Schedule call
	pri uint64 // lineage priority inherited from the scheduling event
	key uint64 // seq<<refBits | arena ref
}

func (e entry) ref() int32 { return int32(e.key & refMask) }

// entryLess is the strict (time, stamp, priority, seq) order.
func entryLess(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.sat != b.sat {
		return a.sat < b.sat
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.key < b.key
}

// entryCmp is entryLess as a three-way comparison for slices.SortFunc.
func entryCmp(a, b entry) int {
	switch {
	case entryLess(a, b):
		return -1
	case entryLess(b, a):
		return 1
	}
	return 0
}

// slot is one arena cell: the event's ordering key and payload. next
// links either the free list or a near bucket's list (ref+1 encoded, so
// the zero value means "end of list" and the zero Engine works). key and
// next lead because a bucket drain reads only those.
type slot struct {
	key  entry
	next int32
	h    Handler
	arg  EventArg
}

// ladder is the queue itself. The zero value is ready to use.
type ladder struct {
	arena []slot
	free  int32 // head of the slot free list, ref+1 encoded; 0 = empty

	n     int // total pending events (run + buckets + far)
	nearN int // events in bucket lists (not counting the run)

	// run is the current bucket, drained into contiguous storage and
	// sorted ascending; run[head:] are its pending entries.
	run  []entry
	head int

	// tops[i] heads bucket i's list of arena slots, newest first,
	// threaded through slot.next (ref+1 encoded; 0 = empty).
	tops  [numBuckets]int32
	occ   [numBuckets / 64]uint64 // per-bucket non-empty bits
	cur   int                     // drain cursor: the bucket run holds
	curT0 Time                    // start time of bucket cur

	far farHeap
}

// push queues (h, arg) under the key (at, sat, pri, seq). at may
// precede curT0 (an event scheduled for "now" after the cursor advanced
// past its bucket): it joins the current run, where the sort still
// fires it first.
func (l *ladder) push(at, sat Time, pri, seq uint64, h Handler, arg EventArg) {
	var ref int32
	if l.free != 0 {
		ref = l.free - 1
		l.free = l.arena[ref].next
	} else {
		ref = int32(len(l.arena))
		l.arena = append(l.arena, slot{})
	}
	if ref > refMask || seq >= 1<<(64-refBits) {
		panic(fmt.Sprintf("sim: event queue out of keys (ref %d, seq %d)", ref, seq))
	}
	e := entry{at: at, sat: sat, pri: pri, key: seq<<refBits | uint64(ref)}
	s := &l.arena[ref]
	s.key, s.h, s.arg = e, h, arg
	if l.n == 0 {
		// Empty queue: re-anchor the window at this event so a long idle
		// gap doesn't strand it in the far heap.
		l.cur = 0
		l.curT0 = at
	}
	l.n++
	if at >= l.curT0 {
		d := int((at - l.curT0) >> bucketShift)
		if d >= numBuckets-l.cur {
			l.far.push(e)
			return
		}
		if d > 0 {
			l.link(l.cur+d, ref)
			return
		}
	}
	l.insertRun(e)
}

// link threads slot ref onto bucket idx's list.
func (l *ladder) link(idx int, ref int32) {
	l.arena[ref].next = l.tops[idx]
	l.tops[idx] = ref + 1
	l.nearN++
	l.occ[idx>>6] |= 1 << (idx & 63)
}

// insertRun places e into the sorted current run: an entry at or after
// the run's last one appends, any other binary-searches in.
func (l *ladder) insertRun(e entry) {
	if len(l.run) == cap(l.run) && l.head > 0 {
		// Reclaim the drained prefix before growing.
		l.run = l.run[:copy(l.run, l.run[l.head:])]
		l.head = 0
	}
	r := l.run
	n := len(r)
	if n == l.head || !entryLess(e, r[n-1]) {
		l.run = append(r, e)
		return
	}
	lo, hi := l.head, n-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if entryLess(e, r[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	r = append(r, entry{})
	copy(r[lo+1:], r[lo:])
	r[lo] = e
	l.run = r
}

// release frees a slot and returns its payload. The slot is cleared so
// the arena never pins a dead handler or packet for the GC.
func (l *ladder) release(ref int32) (Handler, EventArg) {
	s := &l.arena[ref]
	h, arg := s.h, s.arg
	s.h, s.arg = nil, EventArg{}
	s.next = l.free
	l.free = ref + 1
	return h, arg
}

// position makes the run hold the earliest pending event: when the run
// is drained it moves the cursor to the next occupied bucket (refilling
// from the far heap first if the buckets are empty) and drains that
// bucket into the run. Callers must ensure l.n > 0.
func (l *ladder) position() {
	if l.head < len(l.run) {
		return
	}
	l.run, l.head = l.run[:0], 0
	if l.nearN == 0 {
		l.refill()
	}
	l.advance()
	l.drain()
}

// advance moves the cursor to the first occupied bucket at or after it
// via the occupancy bitmap. Callers must ensure nearN > 0.
func (l *ladder) advance() {
	mask := ^uint64(0) << uint(l.cur&63)
	for w := l.cur >> 6; w < len(l.occ); w++ {
		if b := l.occ[w] & mask; b != 0 {
			idx := w<<6 + bits.TrailingZeros64(b)
			l.curT0 += Time(idx-l.cur) << bucketShift
			l.cur = idx
			return
		}
		mask = ^uint64(0)
	}
	panic("sim: ladder occupancy empty with events pending")
}

// drain moves bucket cur's list into the (empty) run in arrival order
// and sorts it ascending. Arrival order is nearly key order among events
// sharing a fire time, so the insertion sort mostly moves an entry past
// later-firing ones that were scheduled before it.
func (l *ladder) drain() {
	r := l.run
	for ref := l.tops[l.cur]; ref != 0; ref = l.arena[ref-1].next {
		r = append(r, l.arena[ref-1].key)
	}
	slices.Reverse(r)
	l.run = r
	n := len(r)
	l.nearN -= n
	l.tops[l.cur] = 0
	l.occ[l.cur>>6] &^= 1 << (l.cur & 63)

	budget := insertionSortMax * n // element moves allowed before falling back
	for i := 1; i < n; i++ {
		x := r[i]
		if !entryLess(x, r[i-1]) {
			continue
		}
		j := i
		for ; j > 0 && entryLess(x, r[j-1]); j-- {
			r[j] = r[j-1]
		}
		r[j] = x
		if budget -= i - j; budget < 0 {
			slices.SortFunc(r, entryCmp)
			return
		}
	}
}

// refill jumps the near window to the earliest far event and migrates
// every far event inside the new window into buckets. Callers must
// ensure the far heap is non-empty.
func (l *ladder) refill() {
	l.cur = 0
	l.curT0 = l.far[0].at
	end := l.curT0 + numBuckets<<bucketShift
	for len(l.far) > 0 && l.far[0].at < end {
		e := l.far.pop()
		l.link(int((e.at-l.curT0)>>bucketShift), e.ref())
	}
}

// popUntil removes and returns the earliest (at, sat, pri, seq) event
// if its time is at or before limit.
func (l *ladder) popUntil(limit Time) (entry, bool) {
	if l.n == 0 {
		return entry{}, false
	}
	l.position()
	e := l.run[l.head]
	if e.at > limit {
		return entry{}, false
	}
	l.head++
	l.n--
	return e, true
}

// peek returns the earliest pending event time without removing it.
func (l *ladder) peek() (Time, bool) {
	if l.n == 0 {
		return 0, false
	}
	l.position()
	return l.run[l.head].at, true
}

// farHeap is a 4-ary min-heap on (at, sat, pri, seq). Four-way fan-out
// halves the tree depth of a binary heap, and a node's four 32-byte
// children share two adjacent cache lines.
type farHeap []entry

func (h *farHeap) push(e entry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !entryLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *farHeap) pop() entry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	// Sift down.
	i := 0
	for {
		c := i<<2 + 1
		if c >= len(s) {
			break
		}
		min := c
		hi := c + 4
		if hi > len(s) {
			hi = len(s)
		}
		for j := c + 1; j < hi; j++ {
			if entryLess(s[j], s[min]) {
				min = j
			}
		}
		if !entryLess(s[min], s[i]) {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}
