package scenario

import (
	"errors"
	"fmt"
	"sync/atomic"

	tccluster "repro"
)

// runFailureTour is the guided tour of the failure modes TCCluster's
// design rules exist to prevent (examples/failures): write-only fabric,
// stale write-back receive buffers, SMC leakage, lossy cables, and the
// pulled cable against a reliable channel. It is standalone: each scene
// builds its own cluster from the scenario's lowered base, swapping
// kernel, error rate and fault campaign as the scene demands.
func runFailureTour(rc *runCtx, w *WorkloadSpec) error {
	lossyRates := []float64{0, 0.01, 0.05, 0.20}
	if p := w.FailureTour; p != nil && len(p.LossyRates) > 0 {
		lossyRates = p.LossyRates
	}
	out := rc.out
	fmt.Fprintln(out, "== 1. the write-only network ==")
	if err := tourWriteOnly(rc); err != nil {
		return err
	}
	fmt.Fprintln(out, "\n== 2. the stale write-back receive buffer ==")
	if err := tourStaleCache(rc); err != nil {
		return err
	}
	fmt.Fprintln(out, "\n== 3. the leaking stock kernel ==")
	if err := tourSMCLeak(rc); err != nil {
		return err
	}
	fmt.Fprintln(out, "\n== 4. the lossy cable ==")
	if err := tourLossyCable(rc, lossyRates); err != nil {
		return err
	}
	fmt.Fprintln(out, "\n== 5. the pulled cable ==")
	return tourPulledCable(rc)
}

// tourCluster boots a scene cluster: the scenario's base with the
// paper's custom kernel, no faults, and mod's final say.
func tourCluster(rc *runCtx, mod func(*buildParams)) (*tccluster.Cluster, error) {
	return rc.newCluster(func(p *buildParams) {
		p.Kopt = tccluster.KernelOptions{SMCDisabled: true}
		p.Faults = nil
		if mod != nil {
			mod(p)
		}
	})
}

// Scene 1: reads cannot cross the network — the response strands at the
// remote node's matching table (§IV.A), so the fabric is write-only.
func tourWriteOnly(rc *runCtx) error {
	out := rc.out
	c, err := tourCluster(rc, nil)
	if err != nil {
		return err
	}
	// A store to the remote window works...
	okStore := false
	c.Node(0).Core().StoreBlock(c.Node(1).MemBase()+8<<20, make([]byte, 64), func(err error) {
		okStore = err == nil
	})
	c.Run()
	fmt.Fprintf(out, "remote posted store: delivered=%v\n", okStore)

	// ...but a driver window refuses reads, and if you force a read at
	// the hardware level the response orphans at the peer.
	w, err := c.Kernel(0).MapRemote(1, 0, 4096)
	if err != nil {
		return err
	}
	w.Read(0, 8, func(_ []byte, err error) {
		fmt.Fprintf(out, "driver-level remote read: %v\n", err)
	})
	answered := false
	c.Node(0).Machine().Procs[0].NB.CPURead(c.Node(1).MemBase()+0x40, make([]byte, 64),
		func([]byte, error) { answered = true })
	c.Run()
	fmt.Fprintf(out, "hardware-level remote read: answered=%v, peer orphaned responses=%d\n",
		answered, c.Node(1).Machine().Procs[0].NB.Counters().OrphanResponses)
	return rc.failed()
}

// Scene 2: a write-back-mapped receive buffer polls stale cache lines
// forever, because remote stores generate no invalidations (§VI).
func tourStaleCache(rc *runCtx) error {
	out := rc.out
	c, err := tourCluster(rc, nil)
	if err != nil {
		return err
	}
	coreA := c.Node(0).Core()
	flagAddr := c.Node(0).MemBase() + 8<<20 // WB-mapped DRAM (outside the UC window)

	// Node 0 polls once: the line is now cached.
	coreA.Load(flagAddr, 8, func([]byte, error) {})
	c.Run()
	// Node 1 remote-stores the flag.
	c.Node(1).Core().StoreBlock(flagAddr, []byte{0xFF, 0, 0, 0, 0, 0, 0, 0}, func(error) {
		c.Node(1).Core().Sfence(func() {})
	})
	c.Run()
	inDRAM, err := c.Node(0).PeekMem(8<<20, 1)
	if err != nil {
		return err
	}
	var polled byte
	coreA.Load(flagAddr, 8, func(d []byte, err error) {
		if rc.saveErr(err) {
			return
		}
		polled = d[0]
	})
	c.Run()
	if err := rc.failed(); err != nil {
		return err
	}
	fmt.Fprintf(out, "DRAM holds %#x, but the WB-mapped poll reads %#x — stale forever\n",
		inDRAM[0], polled)

	// The driver refuses to create such a mapping in the first place.
	_, err = c.Kernel(0).MapLocal(8<<20, 4096)
	if err == nil {
		return errors.New("driver accepted a cachable receive buffer")
	}
	fmt.Fprintf(out, "driver's answer: %v\n", err)
	return nil
}

// Scene 3: a stock kernel's SMC broadcasts leak across TCCluster links
// into the neighbor machine (§VI) — the reason for the custom kernel.
func tourSMCLeak(rc *runCtx) error {
	out := rc.out
	// Stock kernel first.
	c, err := tourCluster(rc, func(p *buildParams) {
		p.Kopt = tccluster.KernelOptions{SMCDisabled: false}
	})
	if err != nil {
		return err
	}
	before := c.Kernel(1).Interrupts()
	c.Kernel(0).RaiseSMC(0xFEE0_0000)
	c.Run()
	fmt.Fprintf(out, "stock kernel SMC: peer interrupts %d -> %d (leaked across the cluster)\n",
		before, c.Kernel(1).Interrupts())

	c2, err := tourCluster(rc, nil)
	if err != nil {
		return err
	}
	before = c2.Kernel(1).Interrupts()
	c2.Kernel(0).RaiseSMC(0xFEE0_0000)
	c2.Run()
	fmt.Fprintf(out, "custom kernel SMC: peer interrupts %d -> %d (suppressed at the source, %d swallowed)\n",
		before, c2.Kernel(1).Interrupts(), c2.Kernel(0).SuppressedSMCs())
	return rc.failed()
}

// Scene 4: a lossy HTX cable still delivers everything, but link-level
// retries eat the bandwidth — why the prototype backed its link down to
// HT800 (§VI).
func tourLossyCable(rc *runCtx, rates []float64) error {
	out := rc.out
	measure := func(rate float64) (mbps float64, retries uint64, err error) {
		c, err := tourCluster(rc, func(p *buildParams) {
			p.Cfg.CableErrorRate = rate
		})
		if err != nil {
			return 0, 0, err
		}
		const total = 64 << 10
		start := c.Now()
		var finish tccluster.Time
		c.Node(0).Core().StoreBlock(c.Node(1).MemBase()+8<<20, make([]byte, total), func(err error) {
			if rc.saveErr(err) {
				return
			}
			// Node-local clock: this callback runs on node 0's partition.
			c.Node(0).Core().Sfence(func() { finish = c.Node(0).Now() })
		})
		c.Run()
		if err := rc.failed(); err != nil {
			return 0, 0, err
		}
		if _, err := c.Node(1).PeekMem(8<<20, total); err != nil {
			return 0, 0, err
		}
		st := c.ExternalLinks()[0].A().Stats()
		return float64(total) / float64(finish-start) * 1e12 / 1e6, st.Retries, nil
	}
	for _, rate := range rates {
		mbps, retries, err := measure(rate)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "error rate %4.0f%%: %6.0f MB/s, %3d link-level retries (all data delivered)\n",
			rate*100, mbps, retries)
	}
	return nil
}

// Scene 5: a pulled cable master-aborts every in-flight packet — the
// raw protocol loses them silently, so end-to-end reliability rides
// above the fabric as acks carried in remote posted writes. Scene (a)
// re-seats the cable after 200 us and go-back-N delivers everything;
// scene (b) leaves it pulled and the retransmit budget declares the
// peer dead. Campaign actions cut the timeline at exact virtual times,
// so the counters below are identical under -parallel.
func tourPulledCable(rc *runCtx) error {
	out := rc.out
	c, err := tourCluster(rc, func(p *buildParams) {
		p.Faults = []tccluster.FaultAction{
			tccluster.LinkDownFor(0, 1500*tccluster.Microsecond, 200*tccluster.Microsecond)}
	})
	if err != nil {
		return err
	}
	par := tccluster.DefaultMsgParams()
	par.Reliable = true
	par.AckTimeout = 20 * tccluster.Microsecond
	s, r, err := c.OpenChannel(0, 1, par)
	if err != nil {
		return err
	}
	const total = 60
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
	var send func(i int)
	send = func(i int) {
		if i >= total {
			return
		}
		s.Send(make([]byte, 64), func(err error) {
			if rc.saveErr(err) {
				return
			}
			send(i + 1)
		})
	}
	send(0)
	c.RunFor(8 * tccluster.Millisecond)
	r.Stop()
	if err := rc.failed(); err != nil {
		return err
	}
	st := s.Stats()
	var aborts uint64
	for k, v := range c.Metrics().Counters {
		if k.Name == "nb.master_aborts" {
			aborts += v
		}
	}
	fmt.Fprintf(out, "cable pulled 200us mid-stream: %d/%d delivered, %d master-aborts, %d retransmissions (%d ack timeouts), link %s again\n",
		delivered.Load(), total, aborts, st.Retransmits, st.AckTimeouts,
		c.ExternalLinks()[0].State())

	// (b) Pull it and leave it: the budget is finite by design — an
	// unreachable peer must surface as an error, not an infinite stall.
	c2, err := tourCluster(rc, func(p *buildParams) {
		p.Faults = []tccluster.FaultAction{
			tccluster.LinkDown(0, 1500*tccluster.Microsecond)}
	})
	if err != nil {
		return err
	}
	par2 := tccluster.DefaultMsgParams()
	par2.Reliable = true
	par2.AckTimeout = 10 * tccluster.Microsecond
	par2.RetransmitBudget = 3
	s2, r2, err := c2.OpenChannel(0, 1, par2)
	if err != nil {
		return err
	}
	var serve2 func()
	serve2 = func() {
		r2.Recv(func(_ []byte, err error) {
			if err != nil {
				return
			}
			serve2()
		})
	}
	serve2()
	var sendErr atomic.Value
	var send2 func()
	send2 = func() {
		s2.Send(make([]byte, 64), func(err error) {
			if err != nil {
				sendErr.CompareAndSwap(nil, err)
				return
			}
			send2()
		})
	}
	send2()
	c2.RunFor(3 * tccluster.Millisecond)
	r2.Stop()
	err, _ = sendErr.Load().(error)
	fmt.Fprintf(out, "cable pulled for good: sender dead=%v, ErrPeerDead=%v\n  send error: %v\n",
		s2.Dead(), errors.Is(err, tccluster.ErrPeerDead), err)
	return nil
}
