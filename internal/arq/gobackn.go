package arq

import (
	"time"

	"protodsl/internal/netsim"
)

// This file is go-back-N's policy on the window shell (window.go): a
// sliding window of up to W unacknowledged packets with cumulative
// acknowledgements, one timer for the oldest unacked packet, and the
// whole window resent when it fires. It demonstrates why stop-and-wait
// throughput collapses on long-delay links — the DESIGN.md §6 window
// ablation.

// sendMeta is per-window-slot transmit metadata for RTT sampling: when
// the slot's packet first went out, and whether it was ever
// retransmitted (Karn's rule, see senderCore.observeRTT).
type sendMeta struct {
	at   time.Duration
	retx bool
}

// gbnSender runs one retransmission timer over the whole window.
type gbnSender struct {
	senderCore
	timer   netsim.Timer
	retries int        // retransmission rounds since the last forward progress
	meta    []sendMeta // per-window-slot transmit times, indexed idx%window
}

func (s *gbnSender) onSend(idx int, retx bool) {
	if retx {
		s.meta[idx%s.window].retx = true
	} else {
		s.meta[idx%s.window] = sendMeta{at: s.rt.Now()}
	}
}

func (s *gbnSender) pumped() { s.armTimer() }

func (s *gbnSender) stopTimers() {
	if s.timer != nil {
		s.timer.Cancel()
	}
}

func (s *gbnSender) armTimer() {
	if s.timer != nil {
		s.timer.Cancel()
	}
	if s.base < len(s.payloads) {
		s.timer = s.rt.After(s.rto.current(), s.onTimeout)
	}
}

// onAck handles a cumulative ack: seq acknowledges every packet up to
// and including that sequence number.
func (s *gbnSender) onAck(seq uint8) {
	// Map the 8-bit seq back into the window.
	for i := s.base; i < s.next; i++ {
		if uint8(i%256) == seq {
			// Karn-filtered RTT samples for every packet this cumulative
			// ack newly covers.
			for j := s.base; j <= i; j++ {
				if m := &s.meta[j%s.window]; !m.retx {
					s.observeRTT(m.at)
				}
			}
			s.base = i + 1
			s.retries = 0
			// Forward progress clears backoff even when every covered
			// packet was a Karn-suppressed retransmission.
			s.rto.progress()
			s.pump()
			return
		}
	}
	// Ack outside the window: stale duplicate; ignore.
}

func (s *gbnSender) onTimeout() {
	if s.done || !s.expire(&s.retries) {
		return
	}
	// Go back N: retransmit the whole window.
	for i := s.base; i < s.next; i++ {
		if err := s.transmit(i, true); err != nil {
			s.fail(err)
			return
		}
	}
	s.armTimer()
}

// gbnReceiver accepts in-order packets only and cumulatively acks the
// last in-order sequence number.
type gbnReceiver struct{ receiverCore }

func (r *gbnReceiver) accept(seq uint8, payload []byte) (uint8, bool) {
	if seq == uint8(r.expect%256) {
		r.deliver(r.keep(payload))
	}
	// Cumulative ack for the last in-order packet (none yet -> none).
	if r.expect == 0 {
		return 0, false
	}
	return uint8((r.expect - 1) % 256), true
}

// StartGBN attaches a go-back-N flow to two existing *simulator* ports
// — endpoints or mux flow ports, whose delivery buffers are
// handler-owned — and schedules its first window on rt. Many flows can
// share one runtime (and one bottleneck link, via netsim.Mux); the
// caller runs the runtime's event loop. For real-network (rtnet) flows,
// whose delivery buffers are recycled, attach the halves instead:
// AttachGBNSender on the sending node, NewGBNReceiver (which copies
// what it keeps) on the receiving one.
func StartGBN(rt netsim.Runtime, sport, rport netsim.Port, cfg FlowConfig, payloads [][]byte) (*WindowFlow, error) {
	recv, err := NewGBNReceiver(rport, sport.Addr())
	if err != nil {
		return nil, err
	}
	return startFlow(rt, sport, rport, recv, AttachGBNSender, cfg, payloads)
}

// AttachGBNSender attaches a go-back-N sender to port, talking to peer,
// and schedules its first window on rt. The port's handler is taken over
// (acks arrive there). onDone, if non-nil, runs inside the event loop
// when the transfer finishes (successfully or not); rtnet callers use it
// to signal a waiting goroutine.
func AttachGBNSender(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, cfg FlowConfig, payloads [][]byte, onDone func()) (*WindowSender, error) {
	core, err := newSenderCore(rt, port, peer, cfg, payloads, onDone)
	if err != nil {
		return nil, err
	}
	s := &gbnSender{senderCore: core, meta: make([]sendMeta, core.window)}
	return s.start(s), nil
}

// NewGBNReceiver builds a go-back-N receiver that acks to peer over port.
func NewGBNReceiver(port netsim.Port, peer netsim.Addr) (*WindowReceiver, error) {
	core, err := newReceiverCore(port, peer)
	if err != nil {
		return nil, err
	}
	r := &gbnReceiver{receiverCore: core}
	r.policy = r
	return &WindowReceiver{r: &r.receiverCore}, nil
}

// RunTransferGBN runs a go-back-N transfer over its own simulator.
// Window 0 selects 8.
func RunTransferGBN(cfg WindowConfig, payloads [][]byte) (*WindowResult, error) {
	return runWindow(cfg, payloads, StartGBN)
}
