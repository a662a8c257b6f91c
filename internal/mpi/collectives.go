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

// ctag builds a collision-free internal tag for one collective round.
// Ranks stay in lockstep because — as in real MPI — every rank must
// invoke collectives in the same order.
func (c *Comm) ctag(op, round int) int {
	if c.epochs == nil {
		c.epochs = make(map[int]int)
	}
	epoch := c.epochs[op]
	return internalTagBase | op<<26 | (epoch&0xFFFF)<<8 | round&0xFF
}

func (c *Comm) bumpEpoch(op int) {
	if c.epochs == nil {
		c.epochs = make(map[int]int)
	}
	c.epochs[op]++
}

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
	if c.epochs == nil {
		c.epochs = make(map[int]int)
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
		c.Recv(from, tag, func(_ []byte, err error) { step(err) })
		c.send(to, tag, []byte{1}, step)
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

// Bcast distributes root's data to every rank along a binomial tree.
// On the root, data is the payload; elsewhere data is ignored. cb fires
// with the payload once this rank has received and forwarded it.
func (c *Comm) Bcast(root int, data []byte, cb func([]byte, error)) {
	g, me, ok := c.grp()
	if !ok {
		cb(nil, c.notMember())
		return
	}
	ri := groupIndex(g, root)
	if ri < 0 {
		cb(nil, fmt.Errorf("mpi: bcast root %d is not in the communicator group", root))
		return
	}
	n := len(g)
	tag := c.ctag(opBcast, 0)
	c.bumpEpoch(opBcast)
	vrank := (me - ri + n) % n
	parent, children := bcastTree(vrank, n)
	glob := func(v int) int { return g[(v+ri)%n] }

	forward := func(payload []byte) {
		pending := len(children)
		if pending == 0 {
			cb(payload, nil)
			return
		}
		var firstErr error
		for _, child := range children {
			c.send(glob(child), tag, payload, func(err error) {
				if err != nil && firstErr == nil {
					firstErr = err
				}
				pending--
				if pending == 0 {
					cb(payload, firstErr)
				}
			})
		}
	}
	if parent == -1 {
		forward(data)
		return
	}
	c.Recv(glob(parent), tag, func(payload []byte, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		forward(payload)
	})
}

// Reduce folds every rank's vector into the root along a binomial tree.
// cb on the root receives the reduction; other ranks get nil.
func (c *Comm) Reduce(root int, vec []float64, op Op, cb func([]float64, error)) {
	g, me, ok := c.grp()
	if !ok {
		cb(nil, c.notMember())
		return
	}
	ri := groupIndex(g, root)
	if ri < 0 {
		cb(nil, fmt.Errorf("mpi: reduce root %d is not in the communicator group", root))
		return
	}
	n := len(g)
	tag := c.ctag(opReduce, 0)
	c.bumpEpoch(opReduce)
	vrank := (me - ri + n) % n
	parent, children := bcastTree(vrank, n)
	glob := func(v int) int { return g[(v+ri)%n] }

	acc := append([]float64(nil), vec...)
	pending := len(children)
	finish := func() {
		if parent == -1 {
			cb(acc, nil)
			return
		}
		c.send(glob(parent), tag, Float64s(acc), func(err error) {
			cb(nil, err)
		})
	}
	if pending == 0 {
		finish()
		return
	}
	for _, child := range children {
		src := glob(child)
		c.Recv(src, tag, func(payload []byte, err error) {
			if err != nil {
				cb(nil, err)
				return
			}
			v, derr := ToFloat64s(payload)
			if derr != nil {
				cb(nil, derr)
				return
			}
			if len(v) != len(acc) {
				cb(nil, fmt.Errorf("mpi: reduce length mismatch: %d vs %d", len(v), len(acc)))
				return
			}
			op(acc, v)
			pending--
			if pending == 0 {
				finish()
			}
		})
	}
}

// Allreduce gives every rank the reduction of all vectors (reduce to
// the group's first survivor, then broadcast).
func (c *Comm) Allreduce(vec []float64, op Op, cb func([]float64, error)) {
	g, _, ok := c.grp()
	if !ok {
		cb(nil, c.notMember())
		return
	}
	root := g[0]
	c.Reduce(root, vec, op, func(result []float64, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		var payload []byte
		if c.rank == root {
			payload = Float64s(result)
		}
		c.Bcast(root, payload, func(data []byte, err error) {
			if err != nil {
				cb(nil, err)
				return
			}
			out, derr := ToFloat64s(data)
			cb(out, derr)
		})
	})
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
	if c.epochs == nil {
		c.epochs = make(map[int]int)
	}
	e := c.epochs[opAllreduceRing]
	c.epochs[opAllreduceRing]++
	epoch := func(step int) int {
		return internalTagBase | opAllreduceRing<<26 | (e&0xFFFF)<<8 | step&0xFF
	}

	acc := append([]float64(nil), vec...)
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
		c.Recv(left, tag, func(payload []byte, err error) {
			if err == nil {
				var v []float64
				if v, err = ToFloat64s(payload); err == nil {
					op(chunk(recvIdx), v)
				}
			}
			done(err)
		})
		c.send(right, tag, Float64s(chunk(sendIdx)), done)
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
		c.Recv(left, tag, func(payload []byte, err error) {
			if err == nil {
				var v []float64
				if v, err = ToFloat64s(payload); err == nil {
					copy(chunk(recvIdx), v)
				}
			}
			done(err)
		})
		c.send(right, tag, Float64s(chunk(sendIdx)), done)
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
