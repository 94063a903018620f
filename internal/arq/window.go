package arq

import (
	"fmt"
	"time"

	"protodsl/internal/faults"
	"protodsl/internal/netsim"
	"protodsl/internal/obs"
)

// This file is the sliding-window shell that go-back-N (gobackn.go) and
// selective repeat (selectiverepeat.go) share: configuration, payload
// bookkeeping, packet and ack encoding, completion, and the Flow, Sender
// and Receiver handles. It is the "richer protocol built from the same
// library pieces" of the paper's §1.1: both protocols run over the
// stop-and-wait wire messages, and each adds only its policy — which ack
// it sends, how it times and retransmits, what it buffers — through
// senderPolicy and receiverPolicy.
//
// The 8-bit sequence space caps the window at 127 (< 256/2), which keeps
// old and new sequence numbers distinguishable after wrap on both sides.

// FlowConfig parameterises one windowed ARQ flow attached to existing
// simulator ports (the shared subset of WindowConfig — the link and
// simulator are the caller's).
type FlowConfig struct {
	// Window is the sender window (1..127; the 8-bit sequence space caps
	// it). Zero selects 8.
	Window int
	// RTO is the retransmission timeout. Zero selects 50 ms.
	RTO time.Duration
	// MaxRetries bounds retransmission rounds (go-back-N) or per-packet
	// retransmissions (selective repeat). Zero selects 10.
	MaxRetries int
	// Adaptive enables the RFC-6298 timeout estimator (internal/arq/rto.go,
	// DESIGN.md §13): SRTT/RTTVAR from the Karn-filtered RTT samples,
	// exponential backoff on timeout, reset on forward progress. RTO then
	// serves only as the initial timeout until the first sample. Off, the
	// configured RTO is a fixed timer — the original engine behaviour,
	// which the golden traces pin.
	Adaptive bool
	// MinRTO and MaxRTO clamp the adaptive timeout (zero selects 5ms and
	// 10s). Ignored in fixed mode.
	MinRTO time.Duration
	MaxRTO time.Duration
}

func (c *FlowConfig) applyDefaults() error {
	if c.RTO == 0 {
		c.RTO = 50 * time.Millisecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 10
	}
	if c.Window == 0 {
		c.Window = 8
	}
	if c.Window < 1 || c.Window > 127 {
		return fmt.Errorf("arq: window %d outside 1..127 (8-bit sequence space)", c.Window)
	}
	if c.Adaptive {
		if c.MinRTO == 0 {
			c.MinRTO = defaultMinRTO
		}
		if c.MaxRTO == 0 {
			c.MaxRTO = defaultMaxRTO
		}
		if c.MinRTO <= 0 || c.MaxRTO < c.MinRTO {
			return fmt.Errorf("arq: adaptive rto bounds [%s, %s] invalid", c.MinRTO, c.MaxRTO)
		}
	}
	return nil
}

// Validate reports the error the flow constructors would return for c,
// so a server can reject a bad configuration before any peer arrives.
func (c FlowConfig) Validate() error { return c.applyDefaults() }

// WindowConfig parameterises a windowed transfer over its own simulator
// (RunTransferGBN, RunTransferSR).
type WindowConfig struct {
	Link     netsim.LinkParams
	RTO      time.Duration
	Adaptive bool // RFC-6298 adaptive RTO (see FlowConfig.Adaptive)
	// MaxRetries bounds retransmission rounds (go-back-N) or per-packet
	// retransmissions (selective repeat) before giving up.
	MaxRetries  int
	Window      int // sender window size (1 = stop-and-wait behaviour)
	Seed        int64
	EventBudget int
	// Faults, if non-nil, layers the fault schedule over the link, one
	// private injector per direction (instance ids 0 and 1).
	Faults *faults.Schedule
}

// WindowResult reports a windowed transfer.
type WindowResult struct {
	OK          bool
	Delivered   [][]byte
	PacketsSent int
	Retransmits int
	Duration    time.Duration
	// Obs is the simulator's observability snapshot (counters, RTT
	// histogram), taken at transfer end. Nil outside RunTransferGBN and
	// RunTransferSR.
	Obs *obs.Snapshot
}

// Goodput returns delivered payload bytes per virtual second.
func (r *WindowResult) Goodput() float64 { return goodput(r.Delivered, r.Duration) }

// senderPolicy is what one window protocol adds to senderCore: its
// timers, its RTT bookkeeping and how an ack moves the window.
type senderPolicy interface {
	// onSend runs after payload idx went out, first copy or retransmit.
	onSend(idx int, retx bool)
	// pumped runs after pump has filled the window.
	pumped()
	// onAck handles one verified ack.
	onAck(seq uint8)
	// stopTimers cancels every armed timer once the transfer is over.
	stopTimers()
}

// senderCore is the state and mechanics every window sender shares.
type senderCore struct {
	rt     netsim.Runtime
	ep     netsim.Port
	peer   netsim.Addr
	codec  *Codec
	obs    *obs.Shard // runtime's stats block (discard when it has none)
	rto    rtoState
	policy senderPolicy

	payloads   [][]byte
	base       int // oldest unacked payload index
	next       int // next payload index to send
	window     int
	maxRetries int

	encBuf     []byte // reusable AppendEncodePacket buffer
	sent       int
	retrans    int
	done       bool
	ok         bool
	finishedAt time.Duration
	err        error
	notify     func() // optional completion hook, runs inside the event loop
}

// newSenderCore validates cfg and builds the shared sender state. The
// caller embeds it in its policy and calls start.
func newSenderCore(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, cfg FlowConfig, payloads [][]byte, onDone func()) (senderCore, error) {
	if err := cfg.applyDefaults(); err != nil {
		return senderCore{}, err
	}
	// One codec per endpoint: the Append/InPlace scratch state makes a
	// Codec single-owner (see Codec docs).
	codec, err := NewCodec()
	if err != nil {
		return senderCore{}, err
	}
	sh := obs.Of(rt)
	return senderCore{
		rt: rt, ep: port, peer: peer, codec: codec, obs: sh,
		rto:      newRTOState(&cfg, sh),
		payloads: payloads, window: cfg.Window, maxRetries: cfg.MaxRetries,
		notify: onDone,
	}, nil
}

// start takes over the port's handler (acks arrive there) and schedules
// the first window.
func (s *senderCore) start(p senderPolicy) *WindowSender {
	s.policy = p
	s.ep.SetHandler(s.onDatagram)
	s.rt.Post(s.pump)
	return &WindowSender{s: s}
}

func (s *senderCore) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.finish(false)
}

func (s *senderCore) finish(ok bool) {
	if s.done {
		return
	}
	s.done, s.ok = true, ok
	s.finishedAt = s.rt.Now()
	s.policy.stopTimers()
	if s.notify != nil {
		s.notify()
	}
}

// pump fills the window.
func (s *senderCore) pump() {
	if s.done {
		return
	}
	if s.base >= len(s.payloads) {
		s.finish(true)
		return
	}
	for s.next < len(s.payloads) && s.next-s.base < s.window {
		idx := s.next
		s.next++
		if err := s.transmit(idx, false); err != nil {
			s.fail(err)
			return
		}
	}
	s.policy.pumped()
}

func (s *senderCore) transmit(idx int, retx bool) error {
	enc, err := s.codec.AppendEncodePacket(s.encBuf[:0], uint8(idx%256), s.payloads[idx])
	if err != nil {
		return err
	}
	s.encBuf = enc[:0]
	if err := s.ep.Send(s.peer, enc); err != nil {
		return err
	}
	s.sent++
	if retx {
		s.retrans++
		s.obs.Inc(obs.Retransmits)
	}
	s.policy.onSend(idx, retx)
	return nil
}

func (s *senderCore) onDatagram(_ netsim.Addr, data []byte) {
	if s.done {
		return
	}
	ack, err := s.codec.DecodeAckInPlace(data)
	if err != nil {
		return // corrupted ack: the retransmission timer recovers
	}
	s.policy.onAck(ack.Value().Seq)
}

// observeRTT records the round trip of a packet first sent at sentAt.
// Karn's rule: an ack for a retransmitted packet gives no valid sample
// (the ack could answer either copy), so policies call this only for
// never-retransmitted packets.
func (s *senderCore) observeRTT(sentAt time.Duration) {
	rtt := s.rt.Now() - sentAt
	s.obs.RTT().Observe(rtt)
	s.rto.sample(rtt)
}

// expire counts one retransmission timeout against *retries and reports
// whether the sender may retransmit; past maxRetries the transfer fails.
func (s *senderCore) expire(retries *int) bool {
	s.obs.Inc(obs.Timeouts)
	*retries++
	if *retries > s.maxRetries {
		s.finish(false)
		return false
	}
	s.rto.backoff()
	return true
}

func (s *senderCore) error() error {
	if s.err != nil {
		return fmt.Errorf("arq: sender: %w", s.err)
	}
	return nil
}

// result snapshots the sender's outcome; only the receiving side knows
// what was delivered.
func (s *senderCore) result() *WindowResult {
	return &WindowResult{
		OK:          s.ok,
		PacketsSent: s.sent,
		Retransmits: s.retrans,
		Duration:    s.finishedAt,
	}
}

// receiverPolicy is what one window protocol adds to receiverCore.
type receiverPolicy interface {
	// accept handles one verified packet and returns the sequence
	// number to ack, if any.
	accept(seq uint8, payload []byte) (ack uint8, send bool)
}

// receiverCore is the state and mechanics every window receiver shares.
type receiverCore struct {
	ep     netsim.Port
	peer   netsim.Addr
	codec  *Codec
	policy receiverPolicy

	expect    int    // next in-order payload index to deliver
	encBuf    []byte // reusable AppendEncodeAck buffer
	delivered [][]byte
	clone     bool // copy kept payloads (real-socket delivery buffers are recycled)
	err       error
}

// newReceiverCore builds the shared receiver state. The caller embeds
// it in its policy and sets policy.
func newReceiverCore(port netsim.Port, peer netsim.Addr) (receiverCore, error) {
	codec, err := NewCodec()
	if err != nil {
		return receiverCore{}, err
	}
	return receiverCore{ep: port, peer: peer, codec: codec, clone: true}, nil
}

func (r *receiverCore) onDatagram(_ netsim.Addr, data []byte) {
	if r.err != nil {
		return
	}
	pkt, err := r.codec.DecodePacketInPlace(data)
	if err != nil {
		return // unverified packets are never processed
	}
	v := pkt.Value()
	if seq, send := r.policy.accept(v.Seq, v.Payload); send {
		r.sendAck(seq)
	}
}

// keep returns payload in a form the receiver may hold past this
// delivery. In-place decode makes it alias the delivery's buffer, which
// a simulator handler owns from here on; under rtnet the buffer is
// recycled after the handler returns, so clone receivers copy it.
func (r *receiverCore) keep(payload []byte) []byte {
	if r.clone {
		return append([]byte(nil), payload...)
	}
	return payload
}

// deliver hands the next in-order payload up.
func (r *receiverCore) deliver(payload []byte) {
	r.delivered = append(r.delivered, payload)
	r.expect++
}

func (r *receiverCore) sendAck(seq uint8) {
	enc, err := r.codec.AppendEncodeAck(r.encBuf[:0], seq)
	if err != nil {
		r.err = err
		return
	}
	r.encBuf = enc[:0]
	if err := r.ep.Send(r.peer, enc); err != nil {
		r.err = err
	}
}

func (r *receiverCore) error() error {
	if r.err != nil {
		return fmt.Errorf("arq: receiver: %w", r.err)
	}
	return nil
}

// WindowSender is the sender half of a windowed flow attached on its own
// (AttachGBNSender, AttachSRSender) — the real-network deployment shape,
// where the receiver half lives in another process (see internal/rtnet
// and cmd/protoserve).
type WindowSender struct{ s *senderCore }

// GBNSender and SRSender are the names the benchmark module (perfbench/)
// spells out. That module is kept unchanged so that its numbers compare
// across commits; these aliases keep it compiling.
type (
	GBNSender = WindowSender
	SRSender  = WindowSender
)

// Done reports whether the sender has finished (successfully or not).
func (s *WindowSender) Done() bool { return s.s.done }

// Err returns the sender's first internal error.
func (s *WindowSender) Err() error { return s.s.error() }

// Result snapshots the sender's outcome. Delivered is nil — only the
// receiving side knows what arrived. Call only after Done (under rtnet:
// from the owning shard loop, or after the onDone signal).
func (s *WindowSender) Result() *WindowResult { return s.s.result() }

// WindowReceiver is the receiver half of a windowed flow attached on its
// own (NewGBNReceiver, NewSRReceiver). It installs no handler: the caller
// routes datagrams to OnDatagram (rtnet's acceptor demultiplexes one
// flow port across many peers). Accepted payloads are copied, because
// real-socket delivery buffers are recycled after the handler returns.
type WindowReceiver struct{ r *receiverCore }

// OnDatagram feeds one received datagram to the receiver.
func (r *WindowReceiver) OnDatagram(from netsim.Addr, data []byte) { r.r.onDatagram(from, data) }

// Expect returns the receiver's resumable progress: the absolute index
// of the next in-order payload (everything below it has been delivered
// and acked). This is the state a session snapshot persists so a
// restarted server resumes at the correct seq instead of seq 0
// (DESIGN.md §14). Packets selective repeat buffers out of order are not
// part of it: after a crash their acks are lost with them and the
// sender's per-packet timers retransmit.
func (r *WindowReceiver) Expect() uint64 { return uint64(r.r.expect) }

// SeedExpect restores progress recorded by Expect on a fresh receiver.
// Call before any datagram is delivered: already-delivered payloads are
// not replayed (the previous incarnation consumed them), the receiver
// simply re-acks from the seeded position on.
func (r *WindowReceiver) SeedExpect(expect uint64) { r.r.expect = int(expect) }

// Delivered returns the in-order payloads accepted so far. Under rtnet,
// call from the owning shard loop (Node.Do).
func (r *WindowReceiver) Delivered() [][]byte { return r.r.delivered }

// Err returns the receiver's first internal error.
func (r *WindowReceiver) Err() error { return r.r.error() }

// WindowFlow is a windowed sender/receiver pair attached to caller-owned
// simulator ports (StartGBN, StartSR). Inspect it after the simulator
// goes idle.
type WindowFlow struct {
	send *senderCore
	recv *receiverCore
}

// Done reports whether the sender has finished (successfully or not).
func (f *WindowFlow) Done() bool { return f.send.done }

// Err returns the first internal error of either side.
func (f *WindowFlow) Err() error {
	if err := f.send.error(); err != nil {
		return err
	}
	return f.recv.error()
}

// Result snapshots the flow's outcome. Duration is the virtual time at
// which the sender finished — for a lone flow in a clean simulator that
// is the delivery time of the final ack.
func (f *WindowFlow) Result() *WindowResult {
	res := f.send.result()
	res.Delivered = f.recv.delivered
	return res
}

// senderAttacher is the signature AttachGBNSender and AttachSRSender share.
type senderAttacher func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, cfg FlowConfig, payloads [][]byte, onDone func()) (*WindowSender, error)

// startFlow attaches recv to rport and a sender to sport and schedules
// the first window on rt.
func startFlow(rt netsim.Runtime, sport, rport netsim.Port, recv *WindowReceiver, attach senderAttacher, cfg FlowConfig, payloads [][]byte) (*WindowFlow, error) {
	recv.r.clone = false // in-process delivery buffers are handler-owned
	rport.SetHandler(recv.OnDatagram)
	send, err := attach(rt, sport, rport.Addr(), cfg, payloads, nil)
	if err != nil {
		return nil, err
	}
	return &WindowFlow{send: send.s, recv: recv.r}, nil
}

// runWindow runs one flow started by start over its own simulator.
func runWindow(cfg WindowConfig, payloads [][]byte, start func(netsim.Runtime, netsim.Port, netsim.Port, FlowConfig, [][]byte) (*WindowFlow, error)) (*WindowResult, error) {
	fcfg := FlowConfig{Window: cfg.Window, RTO: cfg.RTO, MaxRetries: cfg.MaxRetries, Adaptive: cfg.Adaptive}
	if err := fcfg.applyDefaults(); err != nil {
		return nil, err
	}
	if cfg.EventBudget == 0 {
		cfg.EventBudget = 20000 + 100*len(payloads)*(fcfg.MaxRetries+2)
	}
	sim, sEP, rEP, err := newSimPair(cfg.Seed, cfg.Link, cfg.Faults)
	if err != nil {
		return nil, err
	}
	flow, err := start(sim, sEP, rEP, fcfg, payloads)
	if err != nil {
		return nil, err
	}
	if err := sim.RunUntilIdle(cfg.EventBudget); err != nil {
		return nil, fmt.Errorf("arq window transfer: %w", err)
	}
	if err := flow.Err(); err != nil {
		return nil, err
	}
	res := flow.Result()
	res.Obs = sim.Obs().Snapshot()
	return res, nil
}
