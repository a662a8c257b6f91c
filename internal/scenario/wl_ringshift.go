package scenario

import (
	"fmt"
	"sync/atomic"

	tccluster "repro"
)

// runRingshift drives a neighbor-ring shift over the message library:
// every node owns one channel to its successor, and each step every
// rank receives its predecessor's block, folds it into its own, and
// passes the sum along. The pattern keeps every rank active every step
// without the all-pairs channel fabric an MPI world opens and without
// polling loops, so it stays cheap at 256-node torus scale — the
// workload behind the parallel-executor sweep specs.
func runRingshift(rc *runCtx, w *WorkloadSpec) error {
	steps := 4
	payload := 64
	if p := w.Ringshift; p != nil {
		if p.Steps > 0 {
			steps = p.Steps
		}
		if p.Payload > 0 {
			payload = p.Payload
		}
	}
	c, err := rc.cluster()
	if err != nil {
		return err
	}
	out := rc.out
	n := c.N()

	senders := make([]*tccluster.Sender, n)
	receivers := make([]*tccluster.Receiver, n)
	for i := 0; i < n; i++ {
		s, r, err := c.OpenChannel(i, (i+1)%n, tccluster.DefaultMsgParams())
		if err != nil {
			return err
		}
		senders[i] = s
		receivers[(i+1)%n] = r
	}
	if payload > senders[0].MaxMessage() {
		return fmt.Errorf("ringshift: payload %d exceeds channel maximum %d", payload, senders[0].MaxMessage())
	}
	fmt.Fprintf(out, "ring of %d ranks, %d steps, %d-byte blocks\n", n, steps, payload)

	// Each rank's block starts with a rank-distinct stamp; by the end
	// every block has accumulated its `steps` upstream neighbors, so the
	// final checksum is sensitive to delivery order and count.
	bufs := make([][]byte, n)
	for i := range bufs {
		b := make([]byte, payload)
		for k := range b {
			b[k] = byte(i + k*3)
		}
		bufs[i] = b
	}
	start := c.Now()
	var completed atomic.Int64
	for i := 0; i < n; i++ {
		send, recv, buf := senders[i], receivers[i], bufs[i]
		var step func(s int)
		step = func(s int) {
			if s >= steps {
				completed.Add(1)
				return
			}
			recv.Recv(func(d []byte, err error) {
				if rc.saveErr(err) {
					return
				}
				for k := range buf {
					buf[k] += d[k]
				}
				step(s + 1)
			})
			send.Send(buf, func(err error) {
				rc.saveErr(err)
			})
		}
		step(0)
	}
	c.Run()
	if err := rc.failed(); err != nil {
		return err
	}
	if completed.Load() != int64(n) {
		return fmt.Errorf("ringshift: %d of %d ranks completed", completed.Load(), n)
	}
	var sum uint64
	for _, b := range bufs {
		for _, v := range b {
			sum += uint64(v)
		}
	}
	fmt.Fprintf(out, "%d ranks completed %d shifts in %v virtual time (checksum %#x)\n",
		n, steps, c.Now()-start, sum)
	return nil
}
