package scenario

import (
	"fmt"
	"sync/atomic"

	tccluster "repro"
)

// faultRecoveryDefaults resolves the parameter block.
func faultRecoveryDefaults(w *WorkloadSpec) (msgs, stores, src, dst int, ackTO, runFor tccluster.Time) {
	msgs, stores, src, dst = 60, 80, 2, 3
	ackTO, runFor = 20*tccluster.Microsecond, 6*tccluster.Millisecond
	if p := w.FaultRecovery; p != nil {
		if p.Messages > 0 {
			msgs = p.Messages
		}
		if p.Stores > 0 {
			stores = p.Stores
		}
		if p.SrcRank > 0 {
			src = p.SrcRank
		}
		if p.DstRank > 0 {
			dst = p.DstRank
		}
		if p.AckTimeoutNS > 0 {
			ackTO = nsToTime(p.AckTimeoutNS)
		}
		if p.RunForNS > 0 {
			runFor = nsToTime(p.RunForNS)
		}
	}
	return
}

func validateFaultRecovery(_ *Scenario, topo *tccluster.Topology, w *WorkloadSpec) error {
	_, _, src, dst, _, _ := faultRecoveryDefaults(w)
	if src == dst {
		return badf("fault-recovery channel endpoints coincide (rank %d)", src)
	}
	if n := topo.N(); src >= n || dst >= n {
		return badf("fault-recovery channel %d -> %d outside %d nodes", src, dst, n)
	}
	return nil
}

// runFaultRecovery rides a reliable channel and a posted-store stream
// through the scenario's fault campaign: the channel's go-back-N
// retransmission must deliver every message across the outage, and the
// store stream must retire every store across the degraded link. This
// is the failure-recovery determinism workload — all printed counters
// are identical under -parallel.
func runFaultRecovery(rc *runCtx, w *WorkloadSpec) error {
	msgs, stores, src, dst, ackTO, runFor := faultRecoveryDefaults(w)
	c, err := rc.cluster()
	if err != nil {
		return err
	}
	out := rc.out

	par := tccluster.DefaultMsgParams()
	par.Reliable = true
	par.AckTimeout = ackTO
	s, r, err := c.OpenChannel(src, dst, par)
	if err != nil {
		return err
	}
	var delivered atomic.Int64
	var serve func()
	serve = func() {
		r.Recv(func(_ []byte, err error) {
			if err != nil {
				return
			}
			delivered.Add(1)
			serve()
		})
	}
	serve()
	var acked atomic.Int64
	var send func(i int)
	send = func(i int) {
		if i >= msgs {
			return
		}
		s.Send(make([]byte, 64), func(err error) {
			if rc.saveErr(err) {
				return
			}
			acked.Add(1)
			send(i + 1)
		})
	}
	send(0)

	// A posted-store stream across the (possibly degraded) near link.
	base := c.Node(1).MemBase() + 8<<20
	var stored atomic.Int64
	var step func(i int)
	step = func(i int) {
		if i >= stores {
			return
		}
		c.Node(0).Core().StoreBlock(base+uint64(i%8)*64, make([]byte, 64), func(err error) {
			if rc.saveErr(err) {
				return
			}
			stored.Add(1)
			step(i + 1)
		})
	}
	step(0)

	c.RunFor(runFor)
	r.Stop()
	c.Run()
	if err := rc.failed(); err != nil {
		return err
	}

	st := s.Stats()
	fmt.Fprintf(out, "reliable channel %d->%d: %d/%d delivered, %d acked, %d retransmissions (%d ack timeouts)\n",
		src, dst, delivered.Load(), msgs, acked.Load(), st.Retransmits, st.AckTimeouts)
	fmt.Fprintf(out, "posted-store stream 0->1: %d/%d stores retired\n", stored.Load(), stores)
	fmt.Fprintf(out, "virtual time: %v; events fired: %d\n", c.Now(), c.EventsFired())
	if delivered.Load() != int64(msgs) || acked.Load() != int64(msgs) {
		return fmt.Errorf("fault-recovery: delivered %d acked %d of %d messages",
			delivered.Load(), acked.Load(), msgs)
	}
	if stored.Load() != int64(stores) {
		return fmt.Errorf("fault-recovery: %d of %d stores retired", stored.Load(), stores)
	}
	fmt.Fprintln(out, "recovered: every message and store survived the fault campaign")
	return nil
}
