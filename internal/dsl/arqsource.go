package dsl

// ARQSource is the canonical .pdsl definition of the paper's §3.4
// stop-and-wait ARQ protocol and its only definition: internal/arq
// compiles it for its codec and endpoints, internal/arq/gen is
// generated from it, and cmd/pdslc and the examples use this text.
const ARQSource = `// Stop-and-wait ARQ transport protocol (Bhatti et al. §3.4).
protocol arq {
    // Pkt : Byte (seq) -> Byte (chk) -> List Byte (payload)
    message Packet {
        seq: u8
        chk: u8 = checksum sum8
        paylen: u16
        payload: bytes[paylen]
    }

    message Ack {
        seq: u8
        chk: u8 = checksum sum8
    }

    // data SendSt = Ready | Wait | Timeout | Sent
    machine Sender {
        var seq: u8

        init state Ready
        state Wait
        state Timeout
        final state Sent

        event SEND(data: bytes)
        event OK(ack: Ack)
        event FAIL
        event TIMEOUT
        event RETRY
        event FINISH

        // SEND : ListByte -> SendTrans (Ready seq) (Wait seq)
        on SEND from Ready to Wait as send {
            send Packet(seq: seq, payload: data)
        }
        // OK : ChkPacket ... -> SendTrans (Wait seq) (Ready (seq+1))
        on OK from Wait to Ready as ack when ack.seq == seq {
            set seq = seq + 1
        }
        // FAIL : SendTrans (Wait seq) (Ready seq)
        on FAIL from Wait to Ready as fail
        // TIMEOUT : SendTrans (Wait seq) (Timeout seq)
        on TIMEOUT from Wait to Timeout as timeout
        on RETRY from Timeout to Ready as retry
        // FINISH : SendTrans (Ready seq) (Sent seq)
        on FINISH from Ready to Sent as finish

        ignore OK in Ready
        ignore FAIL in Ready
        ignore TIMEOUT in Ready
        ignore RETRY in Ready
        ignore SEND in Wait
        ignore RETRY in Wait
        ignore FINISH in Wait
        ignore SEND in Timeout
        ignore OK in Timeout
        ignore FAIL in Timeout
        ignore TIMEOUT in Timeout
        ignore FINISH in Timeout
    }

    machine Receiver {
        var seq: u8

        init state ReadyFor
        final state Closed

        event RECV(p: Packet)
        event CLOSE

        // RECV : ... CheckPacket ... -> RecvTrans (ReadyFor seq) (ReadyFor (seq+1))
        on RECV from ReadyFor to ReadyFor as accept when p.seq == seq {
            set seq = seq + 1
            send Ack(seq: p.seq)
        }
        on RECV from ReadyFor to ReadyFor as dupack when p.seq != seq {
            send Ack(seq: p.seq)
        }
        on CLOSE from ReadyFor to Closed as close
    }
}
`
