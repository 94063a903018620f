package arq

import (
	"time"

	"protodsl/internal/netsim"
)

// This file is selective repeat's policy on the window shell
// (window.go), the third rung of the ARQ ladder the paper's §1.1 asks
// the language pieces to climb quickly: stop-and-wait -> go-back-N ->
// selective repeat, all over the same wire messages. Unlike go-back-N,
// each packet is acknowledged individually and retransmitted
// individually on its own timer, and the receiver buffers out-of-order
// arrivals inside its window — so one lost packet costs one
// retransmission, not a window's worth.

// srPacket is the sender's in-flight bookkeeping for one payload.
type srPacket struct {
	acked   bool
	retries int
	timer   netsim.Timer
	sentAt  time.Duration // first-transmit time, for Karn-filtered RTT samples
}

// srSender retransmits individually timed packets.
type srSender struct {
	senderCore
	state []srPacket
}

// onSend (re)arms the packet's own timer.
func (s *srSender) onSend(idx int, retx bool) {
	if !retx {
		s.state[idx].sentAt = s.rt.Now()
	}
	if t := s.state[idx].timer; t != nil {
		t.Cancel()
	}
	s.state[idx].timer = s.rt.After(s.rto.current(), func() { s.onTimeout(idx) })
}

func (s *srSender) pumped() {}

func (s *srSender) stopTimers() {
	for i := s.base; i < s.next; i++ {
		if t := s.state[i].timer; t != nil {
			t.Cancel()
		}
	}
}

// onAck handles an individual ack: find the matching in-flight packet.
// Stale acks (already-acked or outside the window) are ignored.
func (s *srSender) onAck(seq uint8) {
	for i := s.base; i < s.next; i++ {
		if uint8(i%256) != seq || s.state[i].acked {
			continue
		}
		s.state[i].acked = true
		// Karn's rule: retries counts retransmissions of this packet.
		if s.state[i].retries == 0 {
			s.observeRTT(s.state[i].sentAt)
		}
		// Any newly-acked packet is forward progress: clear backoff even
		// when Karn's rule suppressed the sample.
		s.rto.progress()
		if t := s.state[i].timer; t != nil {
			t.Cancel()
			s.state[i].timer = nil
		}
		for s.base < s.next && s.state[s.base].acked {
			s.base++
		}
		s.pump()
		return
	}
}

func (s *srSender) onTimeout(idx int) {
	if s.done || s.state[idx].acked || !s.expire(&s.state[idx].retries) {
		return
	}
	if err := s.transmit(idx, true); err != nil {
		s.fail(err)
	}
}

// srReceiver buffers out-of-order packets inside its window and acks
// every validated packet individually.
type srReceiver struct {
	receiverCore
	window int
	buffer map[int][]byte // out-of-order packets, keyed by absolute index
}

func (r *srReceiver) accept(seq uint8, payload []byte) (uint8, bool) {
	// Map the 8-bit sequence number to an absolute index relative to
	// expect. offset in [0, window) -> new packet; offset in
	// [256-window, 256) -> behind the window, i.e. an already-delivered
	// packet whose ack was lost: re-ack it. Anything else is impossible
	// for a well-behaved sender with window <= 127; drop it.
	offset := (int(seq) - r.expect%256 + 256) % 256
	switch {
	case offset < r.window:
		idx := r.expect + offset
		if _, dup := r.buffer[idx]; !dup {
			r.buffer[idx] = r.keep(payload)
		}
		for {
			p, ok := r.buffer[r.expect]
			if !ok {
				break
			}
			delete(r.buffer, r.expect)
			r.deliver(p)
		}
	case offset >= 256-r.window:
		// duplicate of a delivered packet: re-ack it
	default:
		return 0, false
	}
	return seq, true
}

// StartSR attaches a selective-repeat flow to two existing *simulator*
// ports and schedules its first window on rt. Like StartGBN, many flows
// can share one runtime; the caller runs its event loop. For
// real-network (rtnet) flows attach the halves instead — AttachSRSender
// and NewSRReceiver (which copies what it keeps) — because rtnet
// recycles delivery buffers after each handler returns.
func StartSR(rt netsim.Runtime, sport, rport netsim.Port, cfg FlowConfig, payloads [][]byte) (*WindowFlow, error) {
	recv, err := NewSRReceiver(rport, sport.Addr(), cfg)
	if err != nil {
		return nil, err
	}
	return startFlow(rt, sport, rport, recv, AttachSRSender, cfg, payloads)
}

// AttachSRSender attaches a selective-repeat sender to port, talking to
// peer, and schedules its first window on rt. The port's handler is
// taken over. onDone, if non-nil, runs inside the event loop when the
// transfer finishes.
func AttachSRSender(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, cfg FlowConfig, payloads [][]byte, onDone func()) (*WindowSender, error) {
	core, err := newSenderCore(rt, port, peer, cfg, payloads, onDone)
	if err != nil {
		return nil, err
	}
	s := &srSender{senderCore: core, state: make([]srPacket, len(payloads))}
	return s.start(s), nil
}

// NewSRReceiver builds a selective-repeat receiver that acks to peer
// over port. cfg.Window must match the sender's window for wrap safety.
func NewSRReceiver(port netsim.Port, peer netsim.Addr, cfg FlowConfig) (*WindowReceiver, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	core, err := newReceiverCore(port, peer)
	if err != nil {
		return nil, err
	}
	r := &srReceiver{receiverCore: core, window: cfg.Window, buffer: make(map[int][]byte)}
	r.policy = r
	return &WindowReceiver{r: &r.receiverCore}, nil
}

// RunTransferSR runs a selective-repeat transfer over its own simulator.
// Window 0 selects 8.
func RunTransferSR(cfg WindowConfig, payloads [][]byte) (*WindowResult, error) {
	return runWindow(cfg, payloads, StartSR)
}
