// Package msg is the TCCluster message library of §IV.A/§VI: sending is
// a remote posted store into a 4 KB ring buffer in the receiver's
// uncachable memory, receiving is polling that memory, freeing a slot is
// overwriting it, and flow control is the periodic exchange of consumed-
// byte counters through remote stores. Everything rides on exactly two
// primitives — write-combined posted writes and Sfence — because those
// are all a TCCluster link offers.
package msg

import (
	"encoding/binary"
	"fmt"

	"repro/internal/errs"
	"repro/internal/sim"
)

// Ring frame format. Frames are cache-line (64-byte) aligned so a small
// message is exactly one write-combined HT packet and one uncached poll
// read:
//
//	bytes 0..3  payload length (0 = empty slot, wrapMark = wrap marker)
//	bytes 4..7  sequence number (continuity check)
//	bytes 8..   payload, zero-padded to a 64-byte boundary
//
// The 8-byte header is written last (or as part of a single-line store),
// so a nonzero length guarantees the payload is visible: HyperTransport
// delivers posted writes in order and the sender fences before the
// header goes out.
const (
	headerBytes = 8
	frameAlign  = 64
	wrapMark    = 0xFFFFFFFF
	// probeMark is an ack-probe pseudo-frame: a reliable sender that
	// times out without ack progress writes one at its next fresh slot
	// to make the receiver repost its cumulative ack. Probes carry the
	// sender's latest sequence number, occupy no ring space (the next
	// real frame overwrites them) and are never delivered.
	probeMark = 0xFFFFFFFE
)

// Flow-control page layout (one page in the sender's uncachable window,
// written remotely by the receiver, read locally by the sender):
//
//	bytes 0..7    cumulative consumed ring bytes (flow control)
//	bytes 64..71  cumulative acked sequence number (reliable mode)
//
// Both live on distinct cache lines so each update is one posted write.
const ackOff = 64

// frameSize returns the ring bytes a payload of n occupies: header plus
// payload, rounded up to whole cache lines.
func frameSize(n int) uint64 {
	return uint64((headerBytes + n + frameAlign - 1) / frameAlign * frameAlign)
}

// packHeader builds the 8-byte header.
func packHeader(length uint32, seq uint32) []byte {
	h := make([]byte, headerBytes)
	binary.LittleEndian.PutUint32(h[0:4], length)
	binary.LittleEndian.PutUint32(h[4:8], seq)
	return h
}

// parseHeader splits a header into (length, seq).
func parseHeader(h []byte) (uint32, uint32) {
	return binary.LittleEndian.Uint32(h[0:4]), binary.LittleEndian.Uint32(h[4:8])
}

// buildFrame lays out header+payload+padding as one store image.
func buildFrame(payload []byte, seq uint32) []byte {
	return buildFrameInto(nil, payload, seq)
}

// buildFrameInto lays the frame out into dst's backing array (grown as
// needed), so a steady-state sender reuses one scratch image.
func buildFrameInto(dst []byte, payload []byte, seq uint32) []byte {
	n := int(frameSize(len(payload)))
	if cap(dst) < n {
		dst = make([]byte, n)
	} else {
		dst = dst[:n]
		for i := range dst {
			dst[i] = 0
		}
	}
	binary.LittleEndian.PutUint32(dst[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[4:8], seq)
	copy(dst[headerBytes:], payload)
	return dst
}

// zeroHeader is the shared all-zero slot header freeHeader stores: the
// store path stages bytes synchronously, so a static image is safe to
// share across receivers.
var zeroHeader [headerBytes]byte

// Params configure one unidirectional channel.
type Params struct {
	// RingBytes is the receive ring size; the paper fixes it at 4 KB per
	// endpoint, which is what bounds endpoint scalability (§IV.A).
	RingBytes uint64
	// FCThreshold is how many consumed bytes the receiver accumulates
	// before posting a flow-control update back to the sender
	// ("periodically, the APIs ... exchange pointer information").
	FCThreshold uint64
	// BulkBytes, if nonzero, allocates a one-sided rendezvous region the
	// sender can Put into directly (§IV.A one-sided communication).
	BulkBytes uint64
	// Doorbell replaces the receive spin loop — back-to-back uncached
	// DRAM reads, the paper's mode, with its phase alignment and the
	// "additional processor-memory bus overhead when polling" it
	// concedes (§VI) faithfully simulated — with a parked receiver the
	// northbridge wakes inside the store-visibility event when a write
	// into the ring lands in DRAM, and lets a ring-full sender park on
	// its flow-control page the same way. An idle endpoint then costs
	// no events and no memory-bus traffic. This is a deliberate model
	// change, not an elision of the spin loop: delivery pays the full
	// post-visibility ring read (slightly later than a spin poll
	// already in flight), and the spin loop's bus contention disappears
	// — so latency answers shift by a few tens of ns against the
	// paper's polling mode. Off by default for fidelity; simulations
	// that poll-wait for long stretches run several times faster with
	// it on.
	Doorbell bool

	// Reliable turns on end-to-end delivery over a fabric that can lose
	// posted writes (dead links master-abort in-flight packets). The
	// receiver posts cumulative acks into the sender's flow-control page
	// — the fabric is write-only, so acknowledgment is itself a remote
	// posted store (§IV.A) — and the sender holds every frame until it
	// is acked, retransmitting the unacked window (go-back-N, at the
	// frames' original ring offsets) on timeout with exponential
	// backoff. Send completion callbacks fire on acknowledgment, not on
	// store retirement. Off by default: on a healthy fabric HT links
	// are lossless and the paper's raw protocol applies.
	Reliable bool
	// AckTimeout is the sender's ack-progress timeout in reliable mode
	// (default 5 us). Each timeout without progress doubles the wait.
	AckTimeout sim.Time
	// RetransmitBudget is how many consecutive no-progress timeouts the
	// sender tolerates before declaring the peer dead (default 10):
	// every pending and future Send fails with errs.ErrPeerDead.
	RetransmitBudget int
}

// DefaultParams returns the paper's configuration.
func DefaultParams() Params {
	return Params{RingBytes: 4096, FCThreshold: 1024}
}

func (p *Params) validate() error {
	if p.RingBytes == 0 {
		p.RingBytes = 4096
	}
	if p.RingBytes%frameAlign != 0 || p.RingBytes < 64 {
		return fmt.Errorf("msg: ring size %d invalid: %w", p.RingBytes, errs.ErrBadConfig)
	}
	if p.FCThreshold == 0 {
		p.FCThreshold = p.RingBytes / 4
	}
	if p.FCThreshold > p.RingBytes/2 {
		return fmt.Errorf("msg: flow-control threshold %d exceeds half the ring (%d): senders could stall forever: %w",
			p.FCThreshold, p.RingBytes, errs.ErrBadConfig)
	}
	if p.Reliable {
		if p.AckTimeout == 0 {
			p.AckTimeout = 5 * sim.Microsecond
		}
		if p.AckTimeout < 0 {
			return fmt.Errorf("msg: negative ack timeout: %w", errs.ErrBadConfig)
		}
		if p.RetransmitBudget == 0 {
			p.RetransmitBudget = 10
		}
		if p.RetransmitBudget < 0 {
			return fmt.Errorf("msg: negative retransmit budget: %w", errs.ErrBadConfig)
		}
	}
	return nil
}

// MaxMessage returns the largest payload a single ring message may
// carry under these parameters.
func (p Params) MaxMessage() int {
	return int(p.RingBytes) - 2*headerBytes
}
