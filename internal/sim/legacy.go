package sim

import "container/heap"

// legacyQueue is the seed-era event queue: a binary min-heap driven
// through container/heap, complete with the interface{} boxing on every
// push and pop. It is deliberately preserved — not as a fallback, but as
// an independent implementation of the (time, stamp, priority, seq)
// ordering contract.
// The determinism suite runs whole clusters on both queues and demands
// identical results (TestLadderMatchesLegacyOnAllExampleTopologies,
// plus the queue-level property tests in queue_test.go).

type legacyEvent struct {
	at  Time
	sat Time
	pri uint64
	seq uint64
	h   Handler
	arg EventArg
}

type legacyHeap []legacyEvent

func (h legacyHeap) Len() int { return len(h) }
func (h legacyHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].sat != h[j].sat {
		return h[i].sat < h[j].sat
	}
	if h[i].pri != h[j].pri {
		return h[i].pri < h[j].pri
	}
	return h[i].seq < h[j].seq
}
func (h legacyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *legacyHeap) Push(x interface{}) { *h = append(*h, x.(legacyEvent)) }
func (h *legacyHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type legacyQueue struct {
	h legacyHeap
}

func (q *legacyQueue) len() int { return len(q.h) }

func (q *legacyQueue) push(at, sat Time, pri, seq uint64, h Handler, arg EventArg) {
	heap.Push(&q.h, legacyEvent{at: at, sat: sat, pri: pri, seq: seq, h: h, arg: arg})
}

func (q *legacyQueue) popUntil(limit Time) (legacyEvent, bool) {
	if len(q.h) == 0 || q.h[0].at > limit {
		return legacyEvent{}, false
	}
	return heap.Pop(&q.h).(legacyEvent), true
}

func (q *legacyQueue) peek() (Time, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}
