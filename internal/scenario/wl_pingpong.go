package scenario

import (
	"fmt"

	tccluster "repro"
)

// runPingpong is the quickstart tour: boot the prototype, open a
// channel each way, and measure echo round trips.
func runPingpong(rc *runCtx, w *WorkloadSpec) error {
	rounds := 8
	if p := w.Pingpong; p != nil && p.Rounds > 0 {
		rounds = p.Rounds
	}
	c, err := rc.cluster()
	if err != nil {
		return err
	}
	out := rc.out

	fmt.Fprintf(out, "booted %d nodes; TCCluster link is %v at %v x%d\n",
		c.N(),
		c.ExternalLinks()[0].Type(),
		c.ExternalLinks()[0].Speed(),
		c.ExternalLinks()[0].Width())

	// A unidirectional channel node0 -> node1: a 4 KB ring in node1's
	// uncachable memory, written by remote posted stores, read by
	// polling.
	s, r, err := c.OpenChannel(0, 1, tccluster.DefaultMsgParams())
	if err != nil {
		return err
	}
	back, ack, err := c.OpenChannel(1, 0, tccluster.DefaultMsgParams())
	if err != nil {
		return err
	}

	// Node 1 echoes everything.
	var serve func()
	serve = func() {
		r.Recv(func(data []byte, err error) {
			if err != nil {
				return
			}
			back.Send(data, func(error) {})
			serve()
		})
	}
	serve()

	// Node 0 sends a message and waits for the echo.
	done := 0
	var round func(i int)
	round = func(i int) {
		if i >= rounds {
			return
		}
		// Node-local clock: round is driven from node 0's partition, and
		// in a parallel run the global clock is off-limits mid-window.
		start := c.Node(0).Now()
		ack.Recv(func(data []byte, err error) {
			if rc.saveErr(err) {
				return
			}
			rtt := c.Node(0).Now() - start
			fmt.Fprintf(out, "round %d: %q echoed in %v (half RTT %v)\n",
				i, data, rtt, rtt/2)
			done++
			round(i + 1)
		})
		s.Send([]byte(fmt.Sprintf("ping %d over the host interface", i)), func(err error) {
			rc.saveErr(err)
		})
	}
	round(0)

	c.RunFor(tccluster.Millisecond)
	r.Stop()
	ack.Stop()
	c.Run()
	if err := rc.failed(); err != nil {
		return err
	}
	if done != rounds {
		return fmt.Errorf("only %d of %d rounds completed", done, rounds)
	}
	fmt.Fprintf(out, "\nvirtual time elapsed: %v; sender stats: %+v\n", c.Now(), s.Stats())
	return nil
}
