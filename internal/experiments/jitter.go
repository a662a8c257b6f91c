package experiments

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// PollJitter (E14, extension) measures the latency distribution of the
// store+poll receive path. A polling receiver samples memory on a fixed
// grid (one uncached DRAM read per iteration), so one-way latency is
// quantized: a message landing just after a poll waits a full poll
// period for the next one. The paper reports a single 227 ns figure;
// this experiment characterizes the spread real software would see —
// arrival phases are swept across the poll grid in 7 ns steps. It also
// returns the per-round latencies in nanoseconds, sorted ascending.
func PollJitter(rounds int) (*stats.Table, []float64, error) {
	if rounds <= 0 {
		rounds = 60
	}
	c, _, err := buildPair(core.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	n0, n1 := c.Node(0), c.Node(1)
	a, b := n0.Core(), n1.Core()
	buf := n1.MemBase() + 1<<20 // inside node1's UC window

	samples := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		marker := uint64(i + 1)

		var detect, start sim.Time
		polls := 0
		var poll func()
		poll = func() {
			polls++
			if polls > 500 {
				return
			}
			b.Load(buf, 8, func(d []byte, err error) {
				if err != nil {
					return
				}
				if binary.LittleEndian.Uint64(d) == marker {
					detect = n1.Now()
					return
				}
				poll()
			})
		}
		// The receiver's poll grid starts now; the send launches at a
		// swept offset into it, so the arrival phase walks across the
		// poll period round by round.
		poll()
		n0.Engine().After(sim.Time(i*7)*sim.Nanosecond, func() {
			start = n0.Now()
			payload := make([]byte, 64)
			binary.LittleEndian.PutUint64(payload, marker)
			a.StoreBlock(buf, payload, func(err error) {
				if err == nil {
					a.Sfence(func() {})
				}
			})
		})
		c.Run()
		if detect == 0 {
			return nil, nil, fmt.Errorf("round %d: poll never detected the store", i)
		}
		samples = append(samples, (detect - start).Nanos())
	}
	sort.Float64s(samples)
	lo, hi := samples[0], samples[len(samples)-1]

	t := &stats.Table{
		Title:   fmt.Sprintf("E14 — one-way store+poll latency distribution (%d phase-swept rounds)", rounds),
		Columns: []string{"statistic", "ns"},
	}
	row := func(name string, v float64) { t.AddRow(name, fmt.Sprintf("%.0f", v)) }
	row("min", lo)
	row("p25", stats.Percentile(samples, 25))
	row("p50", stats.Percentile(samples, 50))
	row("p75", stats.Percentile(samples, 75))
	row("p95", stats.Percentile(samples, 95))
	row("max", hi)
	row("spread (max-min)", hi-lo)
	row("mean", stats.Mean(samples))
	return t, samples, nil
}
