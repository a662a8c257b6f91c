package sim

import (
	"math/bits"
	"slices"
)

// This file implements the engine's event queue: a two-tier ladder queue
// over an index-addressed event arena, built so the steady-state
// schedule/fire cycle performs zero heap allocations.
//
// Layout:
//
//   - The *arena* stores every pending event's payload (Handler + arg)
//     in a flat slice, addressed by int32 ref and recycled through an
//     intrusive free list. Scheduling never boxes through interface{}
//     the way container/heap did, and a handler that reschedules itself
//     reuses the slot it just vacated.
//
//   - The *near rung* is an array of time buckets, each bucketWidth
//     picoseconds wide, covering a window starting at the current
//     bucket. Buckets are filled unsorted and sorted lazily (descending,
//     popped from the tail) only when the drain cursor reaches them. An
//     occupancy bitmap makes skipping empty buckets O(1) per word, so
//     sparse schedules don't pay a linear scan.
//
//   - The *far heap* is a 4-ary min-heap on (time, stamp, seq) holding
//     events beyond the near window. When the near rung drains, the
//     window jumps to the earliest far event and everything inside the
//     new window migrates into buckets.
//
// Ordering contract: events fire in non-decreasing (at, sat, pri, seq)
// order, where sat is the virtual time of the Schedule call and pri is a
// lineage priority inherited from the event whose handler made that call
// (root events — scheduled from outside any handler — draw fresh
// priorities from a counter in scheduling order). On a single engine sat
// is non-decreasing in seq (the clock never rewinds) and pri order
// coincides with scheduling order at any (at, sat) tie, so the order is
// identical to the seed container/heap's (at, seq) — which is what the
// old-vs-new determinism suite pins down. The extra keys exist for the
// parallel executor: a cross-partition event arrives through a mailbox
// with a late local seq, and its sender-side stamp and inherited
// priority are what slot it into the same same-timestamp arbitration
// position a serial run would have given it.

const (
	// bucketShift sets the bucket width: 2^9 ps = 512 ps, finer than one
	// HT800 16-bit transfer quantum, so back-to-back link events land in
	// distinct buckets while a whole packet's pipeline (tens of ns) still
	// fits comfortably inside one near window.
	bucketShift = 9
	bucketWidth = Time(1) << bucketShift
	numBuckets  = 1024
	// insertionSortMax bounds the hand-rolled insertion sort; larger
	// buckets (mass barriers at one instant) fall back to slices.SortFunc.
	insertionSortMax = 32
)

// entry is one queued event's ordering key plus its arena ref. Entries
// are what move through buckets and the far heap; the struct
// {at, sat, pri, seq, ref} is self-contained so sorting and sifting
// never chase the arena.
type entry struct {
	at  Time
	sat Time   // schedule stamp: virtual time of the Schedule call
	pri uint64 // lineage priority inherited from the scheduling event
	seq uint64
	ref int32
}

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
	return a.seq < b.seq
}

// slot is one arena cell. next links the free list (ref+1 encoded, so
// the zero value means "end of list" and the zero Engine works).
type slot struct {
	h    Handler
	arg  EventArg
	next int32
}

// ladder is the queue itself. The zero value is ready to use.
type ladder struct {
	arena []slot
	free  int32 // head of the slot free list, ref+1 encoded; 0 = empty

	n     int // total pending events (near + far)
	nearN int // events currently in buckets

	buckets [numBuckets][]entry
	occ     [numBuckets / 64]uint64 // per-bucket non-empty bits
	cur     int                     // drain cursor: current bucket index
	curT0   Time                    // start time of bucket cur
	sorted  bool                    // whether buckets[cur] is sorted

	far farHeap
}

// alloc claims an arena slot for (h, arg) and returns its ref.
func (l *ladder) alloc(h Handler, arg EventArg) int32 {
	if l.free != 0 {
		ref := l.free - 1
		s := &l.arena[ref]
		l.free = s.next
		s.h, s.arg, s.next = h, arg, 0
		return ref
	}
	l.arena = append(l.arena, slot{h: h, arg: arg})
	return int32(len(l.arena) - 1)
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

// insert queues an event. at may precede curT0 (an event scheduled for
// "now" after the cursor advanced past its bucket): it clamps into the
// current bucket, where the (at, seq) sort still fires it first.
func (l *ladder) insert(at, sat Time, pri, seq uint64, ref int32) {
	if l.n == 0 {
		// Empty queue: re-anchor the window at this event so a long idle
		// gap doesn't strand it in the far heap.
		l.cur = 0
		l.curT0 = at
		l.sorted = false
	}
	l.n++
	idx := l.cur
	if at >= l.curT0 {
		d := int((at - l.curT0) >> bucketShift)
		if d >= numBuckets-l.cur {
			l.far.push(entry{at: at, sat: sat, pri: pri, seq: seq, ref: ref})
			return
		}
		idx = l.cur + d
	}
	l.nearN++
	b := &l.buckets[idx]
	if idx == l.cur && l.sorted && len(*b) > 0 {
		insertSorted(b, entry{at: at, sat: sat, pri: pri, seq: seq, ref: ref})
	} else {
		*b = append(*b, entry{at: at, sat: sat, pri: pri, seq: seq, ref: ref})
	}
	l.occ[idx>>6] |= 1 << (idx & 63)
}

// insertSorted places en into a descending-(at,seq) bucket.
func insertSorted(b *[]entry, en entry) {
	s := *b
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if entryLess(s[mid], en) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s = append(s, entry{})
	copy(s[lo+1:], s[lo:])
	s[lo] = en
	*b = s
}

// position advances the drain cursor to the bucket holding the earliest
// pending event and sorts it. Callers must ensure l.n > 0.
func (l *ladder) position() {
	if l.nearN == 0 {
		l.refill()
	}
	if len(l.buckets[l.cur]) == 0 {
		l.advance()
	}
	if !l.sorted {
		b := l.buckets[l.cur]
		if len(b) <= insertionSortMax {
			for i := 1; i < len(b); i++ {
				for j := i; j > 0 && entryLess(b[j-1], b[j]); j-- {
					b[j-1], b[j] = b[j], b[j-1]
				}
			}
		} else {
			slices.SortFunc(b, func(x, y entry) int {
				if entryLess(x, y) {
					return 1
				}
				return -1
			})
		}
		l.sorted = true
	}
}

// advance moves the cursor to the next occupied bucket via the
// occupancy bitmap. Callers must ensure nearN > 0.
func (l *ladder) advance() {
	mask := ^uint64(0) << uint(l.cur&63)
	for w := l.cur >> 6; w < len(l.occ); w++ {
		if b := l.occ[w] & mask; b != 0 {
			idx := w<<6 + bits.TrailingZeros64(b)
			l.curT0 += Time(idx-l.cur) << bucketShift
			l.cur = idx
			l.sorted = false
			return
		}
		mask = ^uint64(0)
	}
	panic("sim: ladder occupancy empty with events pending")
}

// refill jumps the near window to the earliest far event and migrates
// every far event inside the new window into buckets. Callers must
// ensure the far heap is non-empty.
func (l *ladder) refill() {
	l.cur = 0
	l.curT0 = l.far[0].at
	l.sorted = false
	end := l.curT0 + numBuckets<<bucketShift
	for len(l.far) > 0 && l.far[0].at < end {
		e := l.far.pop()
		d := int((e.at - l.curT0) >> bucketShift)
		l.buckets[d] = append(l.buckets[d], e)
		l.occ[d>>6] |= 1 << (d & 63)
		l.nearN++
	}
}

// pop removes and returns the earliest (at, sat, pri, seq) event.
func (l *ladder) pop() (entry, bool) {
	if l.n == 0 {
		return entry{}, false
	}
	l.position()
	b := &l.buckets[l.cur]
	e := (*b)[len(*b)-1]
	*b = (*b)[:len(*b)-1]
	l.n--
	l.nearN--
	if len(*b) == 0 {
		l.occ[l.cur>>6] &^= 1 << (l.cur & 63)
	}
	return e, true
}

// peek returns the earliest pending event time without removing it.
func (l *ladder) peek() (Time, bool) {
	if l.n == 0 {
		return 0, false
	}
	l.position()
	b := l.buckets[l.cur]
	return b[len(b)-1].at, true
}

// farHeap is a 4-ary min-heap on (at, sat, pri, seq). Four-way fan-out halves the
// tree depth of a binary heap and keeps sift-down children in one cache
// line of entries.
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
