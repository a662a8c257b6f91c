package ht

import (
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func trainedLink(t *testing.T, eng *sim.Engine, cfg LinkConfig) *Link {
	t.Helper()
	l := NewLink(eng, cfg)
	l.ColdReset()
	eng.Run()
	if l.State() != StateActive {
		t.Fatalf("link did not train: %v", l.State())
	}
	return l
}

func TestColdResetTrainsCoherentBetweenProcessors(t *testing.T) {
	eng := sim.NewEngine()
	l := trainedLink(t, eng, DefaultLinkConfig(ClassProcessor, ClassProcessor))
	if l.Type() != TypeCoherent {
		t.Errorf("processor-processor link trained %v, want coherent", l.Type())
	}
	if l.Speed() != ColdResetSpeed || l.Width() != ColdResetWidth {
		t.Errorf("cold reset trained %v x%d, want %v x%d",
			l.Speed(), l.Width(), ColdResetSpeed, ColdResetWidth)
	}
}

func TestColdResetTrainsNonCoherentToIODevice(t *testing.T) {
	eng := sim.NewEngine()
	l := trainedLink(t, eng, DefaultLinkConfig(ClassProcessor, ClassIODevice))
	if l.Type() != TypeNonCoherent {
		t.Errorf("processor-io link trained %v, want non-coherent", l.Type())
	}
}

// The central TCCluster mechanism: the debug register has no effect until
// a warm reset retrains the link (paper §IV.B).
func TestForceNonCoherentTakesEffectAtWarmReset(t *testing.T) {
	eng := sim.NewEngine()
	l := trainedLink(t, eng, DefaultLinkConfig(ClassProcessor, ClassProcessor))
	if l.Type() != TypeCoherent {
		t.Fatalf("precondition: want coherent, got %v", l.Type())
	}

	l.A().SetForceNonCoherent(true)
	l.B().SetForceNonCoherent(true)
	if l.Type() != TypeCoherent {
		t.Error("debug register changed link type without a warm reset")
	}

	l.WarmReset()
	eng.Run()
	if l.Type() != TypeNonCoherent {
		t.Errorf("after warm reset link is %v, want non-coherent", l.Type())
	}
	if l.Trainings() != 2 {
		t.Errorf("Trainings = %d, want 2", l.Trainings())
	}
}

func TestWarmResetAppliesStagedSpeedAndWidth(t *testing.T) {
	eng := sim.NewEngine()
	l := trainedLink(t, eng, DefaultLinkConfig(ClassProcessor, ClassProcessor))

	l.A().SetProgrammedSpeed(HT2400)
	l.B().SetProgrammedSpeed(HT800) // negotiation takes the min
	l.A().SetProgrammedWidth(16)
	l.B().SetProgrammedWidth(16)
	l.WarmReset()
	eng.Run()
	if l.Speed() != HT800 {
		t.Errorf("speed = %v, want HT800 (min of both ends)", l.Speed())
	}
	if l.Width() != 16 {
		t.Errorf("width = %d, want 16", l.Width())
	}
}

func TestWidthClampedToPhysicalLanes(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultLinkConfig(ClassProcessor, ClassProcessor)
	cfg.MaxWidth = 8
	l := trainedLink(t, eng, cfg)
	l.A().SetProgrammedWidth(16)
	l.B().SetProgrammedWidth(16)
	l.WarmReset()
	eng.Run()
	if l.Width() != 8 {
		t.Errorf("width = %d, want clamp to 8 physical lanes", l.Width())
	}
}

func TestSendOnDownLinkFails(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, DefaultLinkConfig(ClassProcessor, ClassProcessor))
	p, _ := NewPostedWrite(0x1000, make([]byte, 8))
	if err := l.A().Send(p); err == nil {
		t.Error("send on untrained link succeeded")
	}
}

func TestLinkDeliversInOrder(t *testing.T) {
	eng := sim.NewEngine()
	l := trainedLink(t, eng, DefaultLinkConfig(ClassProcessor, ClassIODevice))
	var got []uint64
	l.B().SetSink(func(p *Packet, done func()) {
		got = append(got, p.Addr)
		done()
	})
	const n = 100
	for i := 0; i < n; i++ {
		p, _ := NewPostedWrite(uint64(i*64), make([]byte, 64))
		if err := l.A().Send(p); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(got) != n {
		t.Fatalf("delivered %d packets, want %d", len(got), n)
	}
	for i, a := range got {
		if a != uint64(i*64) {
			t.Fatalf("packet %d addr %#x: posted channel reordered", i, a)
		}
	}
}

func TestLinkSerializationTiming(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultLinkConfig(ClassProcessor, ClassProcessor)
	cfg.Flight = 5 * sim.Nanosecond
	l := trainedLink(t, eng, cfg)
	l.A().SetProgrammedSpeed(HT800)
	l.B().SetProgrammedSpeed(HT800)
	l.A().SetProgrammedWidth(16)
	l.B().SetProgrammedWidth(16)
	l.WarmReset()
	eng.Run()

	// 72 wire bytes at 3.2 GB/s raw = 22.5 ns + ~0.8% CRC ≈ 22.7 ns.
	ser := l.SerializationTime(72)
	if ser < 22*sim.Nanosecond || ser > 24*sim.Nanosecond {
		t.Errorf("72B serialization = %v, want ~22.7ns", ser)
	}

	var deliveredAt sim.Time
	l.B().SetSink(func(p *Packet, done func()) {
		deliveredAt = eng.Now()
		done()
	})
	start := eng.Now()
	p, _ := NewPostedWrite(0x1000, make([]byte, 64))
	if err := l.A().Send(p); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	want := ser + cfg.Flight
	if got := deliveredAt - start; got != want {
		t.Errorf("delivery latency %v, want %v", got, want)
	}
}

func TestLinkRawBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	l := trainedLink(t, eng, DefaultLinkConfig(ClassProcessor, ClassProcessor))
	l.A().SetProgrammedSpeed(HT2600)
	l.B().SetProgrammedSpeed(HT2600)
	l.A().SetProgrammedWidth(16)
	l.B().SetProgrammedWidth(16)
	l.WarmReset()
	eng.Run()
	// 16 lanes * 5.2 Gbit/s = 83.2 Gbit/s = 10.4 GB/s: the "one order of
	// magnitude faster" host-interface number from the paper's intro.
	if bw := l.RawBandwidth(); bw < 10.3e9 || bw > 10.5e9 {
		t.Errorf("HT2600x16 raw bandwidth = %.2f GB/s, want 10.4", bw/1e9)
	}
}

// Receiver backpressure: if the sink never drains, the sender must stall
// after exhausting posted credits rather than delivering unboundedly.
func TestLinkCreditBackpressure(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultLinkConfig(ClassProcessor, ClassIODevice)
	l := trainedLink(t, eng, cfg)

	delivered := 0
	var dones []func()
	l.B().SetSink(func(p *Packet, done func()) {
		delivered++
		dones = append(dones, done) // hold every buffer
	})
	const n = 50
	for i := 0; i < n; i++ {
		p, _ := NewPostedWrite(uint64(i*64), make([]byte, 64))
		if err := l.A().Send(p); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	maxInFlight := cfg.BBuffers.Cmd[VCPosted]
	if delivered > maxInFlight {
		t.Fatalf("delivered %d packets with only %d posted buffers", delivered, maxInFlight)
	}
	if l.A().QueuedPackets() != n-delivered {
		t.Fatalf("queued = %d, want %d", l.A().QueuedPackets(), n-delivered)
	}

	// Drain everything: the stalled packets must now flow.
	for _, done := range dones {
		done()
	}
	dones = nil
	for eng.Step() {
		for _, done := range dones {
			done()
		}
		dones = nil
	}
	if delivered != n {
		t.Fatalf("after draining, delivered = %d, want %d", delivered, n)
	}
	if got := l.A().Stats().CreditStalls; got == 0 {
		t.Error("expected credit stalls to be recorded")
	}
}

func TestResetClearsQueues(t *testing.T) {
	eng := sim.NewEngine()
	l := trainedLink(t, eng, DefaultLinkConfig(ClassProcessor, ClassProcessor))
	// Queue packets with no sink draining on a zero-credit config is not
	// possible; instead queue some and reset before running the engine.
	for i := 0; i < 20; i++ {
		p, _ := NewPostedWrite(uint64(i*64), make([]byte, 64))
		_ = l.A().Send(p)
	}
	l.WarmReset()
	if l.A().QueuedPackets() != 0 {
		t.Errorf("queued = %d after reset, want 0", l.A().QueuedPackets())
	}
}

func TestSpeedGbitPerLane(t *testing.T) {
	if g := HT800.GbitPerLane(); g != 1.6 {
		t.Errorf("HT800 = %v Gbit/s/lane, want 1.6 (paper §VI)", g)
	}
	if g := HT2400.GbitPerLane(); g != 4.8 {
		t.Errorf("HT2400 = %v Gbit/s/lane, want 4.8 (paper §V)", g)
	}
	if g := HT2600.GbitPerLane(); g != 5.2 {
		t.Errorf("HT2600 = %v Gbit/s/lane, want 5.2", g)
	}
}

// A cable pull mid-traffic: queued packets are lost, sends fail, and
// only a reset restores service — TCCluster has no failover.
func TestForceDownLosesPathUntilReset(t *testing.T) {
	eng := sim.NewEngine()
	l := trainedLink(t, eng, DefaultLinkConfig(ClassProcessor, ClassIODevice))
	delivered := 0
	l.B().SetSink(func(p *Packet, done func()) {
		delivered++
		done()
	})
	for i := 0; i < 5; i++ {
		p, _ := NewPostedWrite(uint64(i*64), make([]byte, 64))
		if err := l.A().Send(p); err != nil {
			t.Fatal(err)
		}
	}
	l.ForceDown()
	eng.Run()
	if l.A().QueuedPackets() != 0 {
		t.Error("queued packets survived the cable pull")
	}
	p, _ := NewPostedWrite(0x1000, make([]byte, 8))
	if err := l.A().Send(p); err == nil {
		t.Fatal("send succeeded on a downed link")
	}
	before := delivered
	l.ColdReset()
	eng.Run()
	p2, _ := NewPostedWrite(0x2000, make([]byte, 8))
	if err := l.A().Send(p2); err != nil {
		t.Fatalf("send after retrain: %v", err)
	}
	eng.Run()
	if delivered != before+1 {
		t.Errorf("delivered = %d, want %d after retrain", delivered, before+1)
	}
}

// packetEvents is a tracer counting packet sent and delivered events.
type packetEvents int

func (n *packetEvents) Emit(ev trace.Event) {
	if ev.Kind == trace.KindPacketSent || ev.Kind == trace.KindPacketDelivered {
		*n++
	}
}

func TestPortAccessorsAndLogs(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultLinkConfig(ClassProcessor, ClassIODevice)
	l := NewLink(eng, cfg)
	var traced packetEvents
	l.SetTracer(&traced, 0)
	l.ColdReset()
	eng.Run()
	if l.Trainings() != 1 {
		t.Errorf("trainings = %d after cold reset, want 1", l.Trainings())
	}
	a := l.A()
	if a.Side() != "A" || a.Class() != ClassProcessor || a.Link() != l {
		t.Error("port accessors")
	}
	if a.Peer().Class() != ClassIODevice {
		t.Error("peer accessor")
	}
	a.SetForceNonCoherent(true)
	if !a.ForceNonCoherent() {
		t.Error("force read-back")
	}
	if ClassProcessor.String() != "processor" || ClassIODevice.String() != "io-device" {
		t.Error("class strings")
	}
	if TypeDown.String() != "down" || StateTraining.String() != "training" {
		t.Error("state strings")
	}
	if err := a.CheckIdle(); err != nil {
		t.Errorf("idle port flagged: %v", err)
	}
	l.B().SetSink(func(p *Packet, done func()) { done() })
	p, _ := NewPostedWrite(0, []byte{1, 2, 3, 4})
	_ = a.Send(p)
	eng.Run()
	if traced != 2 {
		t.Errorf("packet trace events = %d, want sent+delivered", traced)
	}
	if err := a.CheckIdle(); err != nil {
		t.Errorf("post-traffic idle check: %v", err)
	}
	// A port whose sink holds a buffer is not idle.
	var held func()
	l.B().SetSink(func(p *Packet, done func()) { held = done })
	p2, _ := NewPostedWrite(64, []byte{1, 2, 3, 4})
	_ = a.Send(p2)
	eng.Run()
	if err := a.CheckIdle(); err == nil {
		t.Error("port with an outstanding credit reported idle")
	}
	held()
	eng.Run()
	if err := a.CheckIdle(); err != nil {
		t.Errorf("drained port not idle: %v", err)
	}
	if l.RawBandwidth() <= 0 {
		t.Error("raw bandwidth")
	}
	l.ForceDown()
	if l.RawBandwidth() != 0 {
		t.Error("down link has bandwidth")
	}
}

// Port.Stats must be safe to call from a monitoring goroutine while the
// simulation mutates the counters (run with -race).
func TestStatsSafeUnderConcurrentReaders(t *testing.T) {
	eng := sim.NewEngine()
	l := trainedLink(t, eng, DefaultLinkConfig(ClassProcessor, ClassIODevice))
	l.B().SetSink(func(p *Packet, done func()) { done() })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = l.A().Stats()
				_ = l.B().Stats()
			}
		}
	}()

	const n = 200
	for i := 0; i < n; i++ {
		p, err := NewPostedWrite(uint64(i*64), make([]byte, 64))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.A().Send(p); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	close(stop)
	wg.Wait()

	if got := l.A().Stats().PktsSent; got != n {
		t.Fatalf("PktsSent = %d, want %d", got, n)
	}
	if got := l.B().Stats().PktsRecv; got != n {
		t.Fatalf("PktsRecv = %d, want %d", got, n)
	}
}
