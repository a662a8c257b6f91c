package mpi

import (
	"fmt"

	"repro/internal/errs"
	"repro/internal/trace"
)

// grp returns the current communicator group (surviving global ranks,
// ascending), this rank's position in it, and whether this rank is a
// member. Collectives do all their rank arithmetic on group positions
// and translate back to global ranks only when addressing a channel, so
// after a Shrink they run over exactly the survivors — with the same
// algorithms and, on a full group, the same wire traffic as before.
func (c *Comm) grp() (g []int, me int, ok bool) {
	g = c.w.group
	for i, r := range g {
		if r == c.rank {
			return g, i, true
		}
	}
	return g, -1, false
}

// notMember is what a collective returns on a rank that failed (or was
// shrunk out): it cannot participate, mirroring MPI_ERR_PROC_FAILED.
func (c *Comm) notMember() error {
	return fmt.Errorf("mpi: rank %d is not in the communicator group: %w", c.rank, errs.ErrPeerDead)
}

// groupIndex finds a global rank's position in g, -1 if absent.
func groupIndex(g []int, rank int) int {
	for i, r := range g {
		if r == rank {
			return i
		}
	}
	return -1
}

// Collective op identifiers for the internal tag space.
const (
	opBarrier = iota + 1
	opBcast
	opReduce
	opGather
	opAllreduce
	opScatter
	opAlltoall
	opAllreduceRing
)

// opCount sizes the per-collective epoch counters.
const opCount = opAllreduceRing + 1

// ctag builds a collision-free internal tag for one collective round.
// Ranks stay in lockstep because — as in real MPI — every rank must
// invoke collectives in the same order.
func (c *Comm) ctag(op, round int) int {
	return internalTagBase | op<<26 | (c.epochs[op]&0xFFFF)<<8 | round&0xFF
}

func (c *Comm) bumpEpoch(op int) { c.epochs[op]++ }

// freeList is a LIFO of recycled operation records.
type freeList[T any] []*T

func (f *freeList[T]) pop() *T {
	n := len(*f)
	if n == 0 {
		return nil
	}
	r := (*f)[n-1]
	(*f)[n-1] = nil
	*f = (*f)[:n-1]
	return r
}

func (f *freeList[T]) push(r *T) { *f = append(*f, r) }

// Op folds src into dst element-wise (a reduction operator).
type Op func(dst, src []float64)

// Sum is element-wise addition.
var Sum Op = func(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// Max is element-wise maximum.
var Max Op = func(dst, src []float64) {
	for i := range dst {
		if src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}

// Min is element-wise minimum.
var Min Op = func(dst, src []float64) {
	for i := range dst {
		if src[i] < dst[i] {
			dst[i] = src[i]
		}
	}
}

// barrierToken is every barrier message's payload; send copies it.
var barrierToken = []byte{1}

// Barrier blocks (in virtual time) until every rank has entered it,
// using the dissemination algorithm: ceil(log2 n) rounds of one send
// and one receive each. done fires when this rank may proceed.
func (c *Comm) Barrier(done func(error)) {
	g, me, ok := c.grp()
	if !ok {
		done(c.notMember())
		return
	}
	n := len(g)
	if n == 1 {
		done(nil)
		return
	}
	epoch := uint64(c.epochs[opBarrier])
	c.barrierEnters.Add(1)
	if c.tracer != nil {
		c.tracer.Emit(trace.Event{
			At: c.eng.Now(), Kind: trace.KindBarrierEnter,
			Node: c.rank, Link: -1, Seq: epoch,
		})
	}
	var round func(k, dist int)
	round = func(k, dist int) {
		if dist >= n {
			c.bumpEpoch(opBarrier)
			c.barrierExits.Add(1)
			if c.tracer != nil {
				c.tracer.Emit(trace.Event{
					At: c.eng.Now(), Kind: trace.KindBarrierExit,
					Node: c.rank, Link: -1, Seq: epoch,
				})
			}
			done(nil)
			return
		}
		to := g[(me+dist)%n]
		from := g[(me-dist+n)%n]
		tag := c.ctag(opBarrier, k)
		pending := 2
		var firstErr error
		step := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			pending--
			if pending == 0 {
				if firstErr != nil {
					done(firstErr)
					return
				}
				round(k+1, dist*2)
			}
		}
		c.recv(from, tag, false, func(_ []byte, err error) { step(err) })
		c.send(to, tag, barrierToken, step)
	}
	round(0, 1)
}

// bcastTree returns the binomial-tree parent and children of a virtual
// rank (root-relative).
func bcastTree(vrank, n int) (parent int, children []int) {
	parent = -1
	limit := n
	if vrank != 0 {
		lsb := vrank & -vrank
		parent = vrank - lsb
		limit = lsb
	}
	for m := 1; m < limit; m <<= 1 {
		if vrank+m < n {
			children = append(children, vrank+m)
		}
	}
	return parent, children
}

// treeNode is one virtual rank's place in a binomial tree.
type treeNode struct {
	parent   int // -1 at the root
	children []int
}

// tree returns the binomial tree over n group positions, indexed by
// virtual (root-relative) rank.
func (w *World) tree(n int) []treeNode {
	w.treeMu.Lock()
	defer w.treeMu.Unlock()
	if n >= len(w.trees) {
		w.trees = append(w.trees, make([][]treeNode, n+1-len(w.trees))...)
	}
	if w.trees[n] == nil {
		t := make([]treeNode, n)
		for v := range t {
			t[v].parent, t[v].children = bcastTree(v, n)
		}
		w.trees[n] = t
	}
	return w.trees[n]
}

// Collective results are borrowed: the slice a Bcast, Reduce or
// Allreduce callback receives lives in a pooled operation record and is
// valid only until the callback returns, so a caller that keeps it
// copies. A record returns to its pool only after its callback returns,
// so a collective started inside the callback runs on another record
// and never overwrites the result the callback holds. A Reduce (or the
// Allreduce riding it) that saw an error is left to the garbage
// collector: its other receives may still name it.

// bcastOp is one rank's share of a broadcast: Bcast's bytes, or the
// float vector of Allreduce's second phase. A vector is decoded where
// it lands and forwarded re-encoded, which reproduces the received
// bytes bit for bit.
type bcastOp struct {
	c        *Comm
	cb       func([]byte, error)    // Bcast's callback
	vecCB    func([]float64, error) // Allreduce's callback; set selects the vector
	buf      []byte                 // Bcast: the payload received from the parent
	payload  []byte                 // Bcast: what is forwarded and handed to cb
	vec      []float64              // Allreduce: the result, forwarded and handed to vecCB
	kids     []int                  // global ranks of the tree children
	parent   int                    // global rank of the tree parent, -1 on the root
	tag      int
	pending  int
	firstErr error
	onParent func([]byte, error)
	onSent   func(error)
}

// treeAt validates root and places this rank in the binomial tree of
// one collective round: its parent (-1 on the root) and, appended to
// kids[:0], its children, both as global ranks, plus the round's tag.
func (c *Comm) treeAt(op int, name string, root int, kids *[]int) (parent, tag int, err error) {
	g, me, ok := c.grp()
	if !ok {
		return 0, 0, c.notMember()
	}
	ri := groupIndex(g, root)
	if ri < 0 {
		return 0, 0, fmt.Errorf("mpi: %s root %d is not in the communicator group", name, root)
	}
	n := len(g)
	tag = c.ctag(op, 0)
	c.bumpEpoch(op)
	node := c.w.tree(n)[(me-ri+n)%n]
	parent = -1
	if node.parent >= 0 {
		parent = g[(node.parent+ri)%n]
	}
	*kids = (*kids)[:0]
	for _, v := range node.children {
		*kids = append(*kids, g[(v+ri)%n])
	}
	return parent, tag, nil
}

// bcast takes a record for one broadcast from root; the caller sets
// the callback and starts it.
func (c *Comm) bcast(root int) (*bcastOp, error) {
	b := c.bcastFree.pop()
	if b == nil {
		b = &bcastOp{c: c}
		b.onParent, b.onSent = b.received, b.sent
	}
	var err error
	if b.parent, b.tag, err = c.treeAt(opBcast, "bcast", root, &b.kids); err != nil {
		c.bcastFree.push(b)
		return nil, err
	}
	return b, nil
}

// Bcast distributes root's data to every rank along a binomial tree.
// On the root, data is the payload, handed back to cb; elsewhere data
// is ignored. cb fires with the payload once this rank has received
// and forwarded it.
func (c *Comm) Bcast(root int, data []byte, cb func([]byte, error)) {
	b, err := c.bcast(root)
	if err != nil {
		cb(nil, err)
		return
	}
	b.cb = cb
	if b.parent == -1 {
		b.payload = data
		b.forward()
		return
	}
	c.recv(b.parent, b.tag, false, b.onParent)
}

// received keeps the parent's borrowed payload in the record, then
// forwards it.
func (b *bcastOp) received(payload []byte, err error) {
	if err == nil && b.vecCB != nil {
		b.vec, err = readFloat64s(b.vec[:0], payload)
	}
	if err != nil {
		b.finish(err)
		return
	}
	if b.vecCB == nil {
		b.buf = append(b.buf[:0], payload...)
		b.payload = b.buf
	}
	b.forward()
}

func (b *bcastOp) forward() {
	b.firstErr = nil
	// One count holds the record while the loop runs, so a send that
	// completes at once cannot finish the broadcast mid-loop.
	b.pending = len(b.kids) + 1
	for _, kid := range b.kids {
		if b.vecCB != nil {
			b.c.sendFloats(kid, b.tag, b.vec, b.onSent)
		} else {
			b.c.send(kid, b.tag, b.payload, b.onSent)
		}
	}
	b.sent(nil)
}

func (b *bcastOp) sent(err error) {
	if err != nil && b.firstErr == nil {
		b.firstErr = err
	}
	b.pending--
	if b.pending == 0 {
		b.finish(b.firstErr)
	}
}

// finish hands the result to the callback, then recycles the record.
// A failed receive leaves nothing outstanding, so it recycles too.
func (b *bcastOp) finish(err error) {
	switch {
	case b.vecCB == nil:
		b.cb(b.payload, err)
	case err != nil:
		b.vecCB(nil, err)
	default:
		b.vecCB(b.vec, nil)
	}
	b.cb, b.vecCB, b.payload, b.firstErr = nil, nil, nil, nil
	b.c.bcastFree.push(b)
}

// reduceOp is one rank's share of a Reduce.
type reduceOp struct {
	c       *Comm
	op      Op
	cb      func([]float64, error)
	acc     []float64 // the running reduction: the root's result
	tmp     []float64 // a child's decoded contribution
	kids    []int     // global ranks of the tree children
	parent  int       // global rank of the tree parent, -1 on the root
	tag     int
	pending int
	onChild func([]byte, error)
	onSent  func(error)
}

// Reduce folds every rank's vector into the root along a binomial tree.
// cb on the root receives the reduction; other ranks get nil.
func (c *Comm) Reduce(root int, vec []float64, op Op, cb func([]float64, error)) {
	r := c.reduceFree.pop()
	if r == nil {
		r = &reduceOp{c: c}
		r.onChild, r.onSent = r.child, r.sent
	}
	var err error
	if r.parent, r.tag, err = c.treeAt(opReduce, "reduce", root, &r.kids); err != nil {
		c.reduceFree.push(r)
		cb(nil, err)
		return
	}
	r.op, r.cb = op, cb
	r.acc = append(r.acc[:0], vec...)
	r.pending = len(r.kids)
	if r.pending == 0 {
		r.finish()
		return
	}
	// Only the last child's receive can complete the fold, so the
	// record outlives this loop.
	for _, kid := range r.kids {
		c.recv(kid, r.tag, false, r.onChild)
	}
}

// child folds one child's borrowed contribution into the reduction.
func (r *reduceOp) child(payload []byte, err error) {
	if err != nil {
		r.cb(nil, err)
		return
	}
	v, err := readFloat64s(r.tmp[:0], payload)
	if err != nil {
		r.cb(nil, err)
		return
	}
	r.tmp = v
	if len(v) != len(r.acc) {
		r.cb(nil, fmt.Errorf("mpi: reduce length mismatch: %d vs %d", len(v), len(r.acc)))
		return
	}
	r.op(r.acc, v)
	r.pending--
	if r.pending == 0 {
		r.finish()
	}
}

// finish hands the root its result, or sends the partial reduction up.
func (r *reduceOp) finish() {
	if r.parent < 0 {
		r.cb(r.acc, nil)
		r.release()
		return
	}
	r.c.sendFloats(r.parent, r.tag, r.acc, r.onSent)
}

// sent completes a non-root rank, whose callback borrows nothing.
func (r *reduceOp) sent(err error) {
	cb := r.cb
	r.release()
	cb(nil, err)
}

func (r *reduceOp) release() {
	r.op, r.cb = nil, nil
	r.c.reduceFree.push(r)
}

// allreduceOp carries an Allreduce's callback from its Reduce to its
// broadcast, which then owns the result.
type allreduceOp struct {
	c           *Comm
	root        int
	cb          func([]float64, error)
	afterReduce func([]float64, error)
}

// Allreduce gives every rank the reduction of all vectors (reduce to
// the group's first survivor, then broadcast).
func (c *Comm) Allreduce(vec []float64, op Op, cb func([]float64, error)) {
	g, _, ok := c.grp()
	if !ok {
		cb(nil, c.notMember())
		return
	}
	a := c.allreduceFree.pop()
	if a == nil {
		a = &allreduceOp{c: c}
		a.afterReduce = a.reduced
	}
	a.root, a.cb = g[0], cb
	c.Reduce(a.root, vec, op, a.afterReduce)
}

func (a *allreduceOp) reduced(result []float64, err error) {
	cb := a.cb
	if err != nil {
		cb(nil, err) // Reduce may report again: leave a to the collector
		return
	}
	c := a.c
	b, err := c.bcast(a.root)
	a.cb = nil
	c.allreduceFree.push(a)
	if err != nil {
		cb(nil, err)
		return
	}
	b.vecCB = cb
	if b.parent == -1 {
		b.vec = append(b.vec[:0], result...)
		b.forward()
		return
	}
	c.recv(b.parent, b.tag, false, b.onParent)
}

// Scatter distributes parts[i] from the root to the group's i-th
// member. On the root, parts must hold one slice per group member (in
// group order — identical to rank order until a Shrink); elsewhere
// parts is ignored. cb receives this rank's part.
func (c *Comm) Scatter(root int, parts [][]byte, cb func([]byte, error)) {
	g, _, ok := c.grp()
	if !ok {
		cb(nil, c.notMember())
		return
	}
	ri := groupIndex(g, root)
	if ri < 0 {
		cb(nil, fmt.Errorf("mpi: scatter root %d is not in the communicator group", root))
		return
	}
	n := len(g)
	tag := c.ctag(opScatter, 0)
	c.bumpEpoch(opScatter)
	if c.rank != root {
		c.Recv(root, tag, cb)
		return
	}
	if len(parts) != n {
		cb(nil, fmt.Errorf("mpi: scatter needs %d parts, got %d", n, len(parts)))
		return
	}
	pending := n - 1
	own := append([]byte(nil), parts[ri]...)
	if pending == 0 {
		cb(own, nil)
		return
	}
	var firstErr error
	for i := 0; i < n; i++ {
		if i == ri {
			continue
		}
		c.send(g[i], tag, parts[i], func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			pending--
			if pending == 0 {
				cb(own, firstErr)
			}
		})
	}
}

// Alltoall sends data[j] to the group's j-th member and collects the
// slice each member addressed to us: out[i] is member i's contribution
// (out[me] is our own data[me], with me this rank's group position —
// identical to rank order until a Shrink). The personalized all-to-all
// is the heaviest collective on any network; on TCCluster it is
// n*(n-1) eager frames.
func (c *Comm) Alltoall(data [][]byte, cb func([][]byte, error)) {
	g, me, ok := c.grp()
	if !ok {
		cb(nil, c.notMember())
		return
	}
	n := len(g)
	tag := c.ctag(opAlltoall, 0)
	c.bumpEpoch(opAlltoall)
	if len(data) != n {
		cb(nil, fmt.Errorf("mpi: alltoall needs %d slices, got %d", n, len(data)))
		return
	}
	out := make([][]byte, n)
	out[me] = append([]byte(nil), data[me]...)
	pending := 2 * (n - 1)
	if pending == 0 {
		cb(out, nil)
		return
	}
	var firstErr error
	step := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		pending--
		if pending == 0 {
			cb(out, firstErr)
		}
	}
	for i := 0; i < n; i++ {
		if i == me {
			continue
		}
		p := i
		c.Recv(g[p], tag, func(payload []byte, err error) {
			out[p] = payload
			step(err)
		})
		c.send(g[p], tag, data[p], step)
	}
}

// AllreduceRing is the bandwidth-optimal ring allreduce: a
// reduce-scatter phase followed by an allgather, 2(n-1) neighbor
// exchanges moving ~2/n of the vector each. For large vectors it beats
// the tree Allreduce (whose root moves the whole vector per child); for
// tiny vectors the tree's log2(n) latency wins — the ablation in
// experiment E15 quantifies the crossover.
func (c *Comm) AllreduceRing(vec []float64, op Op, cb func([]float64, error)) {
	g, me, ok := c.grp()
	if !ok {
		cb(nil, c.notMember())
		return
	}
	n := len(g)
	if n == 1 {
		cb(append([]float64(nil), vec...), nil)
		return
	}
	if len(vec) < n {
		// Too small to chunk: fall back to the tree.
		c.Allreduce(vec, op, cb)
		return
	}
	// Snapshot this invocation's epoch before any step runs: the step
	// closures fire long after the call returns.
	e := c.epochs[opAllreduceRing]
	c.epochs[opAllreduceRing]++
	epoch := func(step int) int {
		return internalTagBase | opAllreduceRing<<26 | (e&0xFFFF)<<8 | step&0xFF
	}

	acc := append([]float64(nil), vec...)
	var tmp []float64 // a step's decoded chunk, reused
	bound := func(i int) int { return i * len(vec) / n }
	chunk := func(i int) []float64 { return acc[bound(i):bound(i+1)] }
	right := g[(me+1)%n]
	left := g[(me-1+n)%n]

	// Phase 1: reduce-scatter. After step s, chunk (rank-s-1) holds the
	// partial reduction of s+2 contributors.
	var reduceStep func(s int)
	// Phase 2: allgather.
	var gatherStep func(s int)

	reduceStep = func(s int) {
		if s >= n-1 {
			gatherStep(0)
			return
		}
		sendIdx := (me - s + n) % n
		recvIdx := (me - s - 1 + n) % n
		tag := epoch(s)
		pending := 2
		var firstErr error
		done := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			pending--
			if pending == 0 {
				if firstErr != nil {
					cb(nil, firstErr)
					return
				}
				reduceStep(s + 1)
			}
		}
		c.recv(left, tag, false, func(payload []byte, err error) {
			if err == nil {
				if tmp, err = readFloat64s(tmp[:0], payload); err == nil {
					op(chunk(recvIdx), tmp)
				}
			}
			done(err)
		})
		c.sendFloats(right, tag, chunk(sendIdx), done)
	}
	gatherStep = func(s int) {
		if s >= n-1 {
			cb(acc, nil)
			return
		}
		sendIdx := (me - s + 1 + n) % n
		recvIdx := (me - s + n) % n
		tag := epoch(128 + s) // distinct from phase-1 tags
		pending := 2
		var firstErr error
		done := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			pending--
			if pending == 0 {
				if firstErr != nil {
					cb(nil, firstErr)
					return
				}
				gatherStep(s + 1)
			}
		}
		c.recv(left, tag, false, func(payload []byte, err error) {
			if err == nil {
				if tmp, err = readFloat64s(tmp[:0], payload); err == nil {
					copy(chunk(recvIdx), tmp)
				}
			}
			done(err)
		})
		c.sendFloats(right, tag, chunk(sendIdx), done)
	}
	reduceStep(0)
}

// Gather collects every member's payload at the root. cb on the root
// receives a slice indexed by group position (identical to rank order
// until a Shrink); other ranks get nil.
func (c *Comm) Gather(root int, data []byte, cb func([][]byte, error)) {
	g, _, ok := c.grp()
	if !ok {
		cb(nil, c.notMember())
		return
	}
	ri := groupIndex(g, root)
	if ri < 0 {
		cb(nil, fmt.Errorf("mpi: gather root %d is not in the communicator group", root))
		return
	}
	n := len(g)
	tag := c.ctag(opGather, 0)
	c.bumpEpoch(opGather)
	if c.rank != root {
		c.send(root, tag, data, func(err error) { cb(nil, err) })
		return
	}
	out := make([][]byte, n)
	out[ri] = append([]byte(nil), data...)
	pending := n - 1
	if pending == 0 {
		cb(out, nil)
		return
	}
	for i := 0; i < n; i++ {
		if i == ri {
			continue
		}
		s := i
		c.Recv(g[s], tag, func(payload []byte, err error) {
			if err != nil {
				cb(nil, err)
				return
			}
			out[s] = payload
			pending--
			if pending == 0 {
				cb(out, nil)
			}
		})
	}
}
