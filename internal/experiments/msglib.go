package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/stats"
)

// MsgLibLatency (E20, extension) is the message-library ping-pong: the
// half round trip a caller of msg.Open sees between the two prototype
// nodes, from 8 B doubling up to the largest single-ring message. It
// adds the library's framing, header poll and flow control to Fig. 7's
// raw store+poll kernel; its 8 B row is the quickstart example's half
// RTT.
func MsgLibLatency() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "E20 — message-library ping-pong (virtual time)",
		Columns: []string{"size", "half RTT ns"},
	}
	par := msg.DefaultParams()
	for size := 8; size <= par.MaxMessage(); size *= 2 {
		c, os, err := buildPair(core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		sAB, rAB, err := msg.Open(os, 0, 1, par)
		if err != nil {
			return nil, err
		}
		sBA, rBA, err := msg.Open(os, 1, 0, par)
		if err != nil {
			return nil, err
		}
		var echo func()
		echo = func() {
			rAB.Recv(func(d []byte, err error) {
				if err != nil {
					return
				}
				sBA.Send(d, func(error) {})
				echo()
			})
		}
		echo()
		const iters = 10
		n0 := c.Node(0)
		var total sim.Time
		completed := 0
		var round func(i int)
		round = func(i int) {
			if i >= iters {
				return
			}
			start := n0.Now()
			rBA.Recv(func(_ []byte, err error) {
				if err != nil {
					return
				}
				total += n0.Now() - start
				completed++
				round(i + 1)
			})
			sAB.Send(make([]byte, size), func(error) {})
		}
		round(0)
		c.RunFor(sim.Millisecond)
		rAB.Stop()
		rBA.Stop()
		c.Run()
		if completed != iters {
			return nil, fmt.Errorf("msglib %dB: completed %d of %d rounds", size, completed, iters)
		}
		t.AddRow(stats.FormatSize(float64(size)),
			fmt.Sprintf("%.0f", (total/sim.Time(2*iters)).Nanos()))
	}
	return t, nil
}
