package arq

import (
	"fmt"
	"sync"

	"protodsl/internal/dsl"
	"protodsl/internal/fsm"
	"protodsl/internal/wire"
)

// Sender/receiver event and state names, exported so callers and tests
// speak the spec's vocabulary.
const (
	// Sender states (the paper's SendSt).
	StReady   = "Ready"
	StWait    = "Wait"
	StTimeout = "Timeout"
	StSent    = "Sent"

	// Receiver states.
	StReadyFor = "ReadyFor"
	StClosed   = "Closed"

	// Sender events (the paper's SendTrans constructors).
	EvSend    = "SEND"
	EvOK      = "OK"
	EvFail    = "FAIL"
	EvTimeout = "TIMEOUT"
	EvRetry   = "RETRY"
	EvFinish  = "FINISH"

	// Receiver events.
	EvRecv  = "RECV"
	EvClose = "CLOSE"
)

// protocol is the compiled stop-and-wait protocol, built once per
// process from its one definition, dsl.ARQSource (examples/specs/arq.pdsl):
// the machine programs every Sender/Receiver instantiates and the message
// layouts every Codec encodes against. Both are immutable and shared.
type protocol struct {
	sender, receiver *fsm.Program
	packet, ack      *wire.Layout
}

var (
	protoOnce sync.Once
	protoVal  *protocol
	protoErr  error
)

// compiled returns the process-wide compiled ARQ protocol.
func compiled() (*protocol, error) {
	protoOnce.Do(func() {
		proto, _, err := dsl.Compile(dsl.ARQSource)
		if err != nil {
			protoErr = fmt.Errorf("arq: compiling arq.pdsl: %w", err)
			return
		}
		p := &protocol{}
		var okS, okR, okP, okA bool
		p.sender, okS = proto.Program("Sender")
		p.receiver, okR = proto.Program("Receiver")
		p.packet, okP = proto.Layout("Packet")
		p.ack, okA = proto.Layout("Ack")
		if !okS || !okR || !okP || !okA {
			protoErr = fmt.Errorf("arq: arq.pdsl lacks a Sender, Receiver, Packet or Ack")
			return
		}
		// The engines hand the machines slot-backed messages decoded by
		// the wire programs; assert once that the machines' message shapes
		// index fields exactly as the wire programs lay them out.
		for _, prog := range []*fsm.Program{p.sender, p.receiver} {
			for _, l := range []*wire.Layout{p.packet, p.ack} {
				if !prog.MsgShape(l.Message().Name).SameLayout(l.Program().Shape()) {
					protoErr = fmt.Errorf("arq: machine %s shape of %s does not match its wire layout",
						prog.Spec().Name, l.Message().Name)
					return
				}
			}
		}
		protoVal = p
	})
	return protoVal, protoErr
}

// machineSpec parses dsl.ARQSource afresh and returns the named machine,
// so callers own the spec and may mutate it (seeded-defect experiments do).
func machineSpec(name string) *fsm.Spec {
	proto, err := dsl.Parse(dsl.ARQSource)
	if err != nil {
		panic(fmt.Sprintf("arq: parsing arq.pdsl: %v", err))
	}
	spec, ok := proto.Machine(name)
	if !ok {
		panic(fmt.Sprintf("arq: arq.pdsl has no machine %s", name))
	}
	return spec
}

// SenderSpec returns the paper's ARQ sender machine, as declared in
// arq.pdsl:
//
//	data SendTrans : SendSt → SendSt → ⋆ where
//	  SEND    : ListByte → SendTrans (Ready seq) (Wait seq)
//	  OK      : ChkPacket … → SendTrans (Wait seq) (Ready (seq+1))
//	  FAIL    : SendTrans (Wait seq) (Ready seq)
//	  TIMEOUT : SendTrans (Wait seq) (Timeout seq)
//	  FINISH  : SendTrans (Ready seq) (Sent seq)
//
// plus RETRY : Timeout → Ready, the host-policy escape that makes the
// machine "ready to try again" after a timeout (§3.4).
//
// The OK transition's ChkPacket argument is modelled by the guard
// `ack.seq == seq` over a *validated* Ack: the interpreter only ever sees
// acks that passed DecodeAck, so the dependent-type precondition
// "verified packet" is established before the event is raised.
//
// Each call returns a freshly parsed spec the caller may mutate.
func SenderSpec() *fsm.Spec { return machineSpec("Sender") }

// ReceiverSpec returns the paper's receiver, as declared in arq.pdsl:
//
//	RECV : (seq : Byte) → (data : ListByte) →
//	       CheckPacket … → RecvTrans (ReadyFor seq) (ReadyFor (seq+1))
//
// extended with the duplicate-ack reply for retransmitted packets (the
// paper's receiver "will reject a packet"; re-acknowledging the rejected
// duplicate is what lets the sender make progress when acks are lost) and
// a CLOSE event to a final state so consistent termination is checkable.
//
// Each call returns a freshly parsed spec the caller may mutate.
func ReceiverSpec() *fsm.Spec { return machineSpec("Receiver") }
