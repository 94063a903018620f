package arq

import (
	"bytes"
	"testing"

	"protodsl/internal/netsim"
)

// TestReceiverSeedExpectResumes: a receiver seeded past the 8-bit wrap
// (what a session restart restores) treats the packet before its seed
// as already delivered and the seeded one as the next in order — for
// both window protocols.
func TestReceiverSeedExpectResumes(t *testing.T) {
	const seed = 300 // past one wrap of the 8-bit sequence space
	for _, tc := range []struct {
		name string
		recv func(port netsim.Port, peer netsim.Addr) (*WindowReceiver, error)
	}{
		{"gbn", NewGBNReceiver},
		{"sr", func(port netsim.Port, peer netsim.Addr) (*WindowReceiver, error) {
			return NewSRReceiver(port, peer, FlowConfig{Window: 8})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := netsim.New(1)
			sEP, err := sim.NewEndpoint("sender")
			if err != nil {
				t.Fatal(err)
			}
			rEP, err := sim.NewEndpoint("receiver")
			if err != nil {
				t.Fatal(err)
			}
			sim.Connect(sEP, rEP, netsim.LinkParams{})
			codec, err := NewCodec()
			if err != nil {
				t.Fatal(err)
			}
			var acks []uint8
			sEP.SetHandler(func(_ netsim.Addr, data []byte) {
				ack, err := codec.DecodeAck(data)
				if err != nil {
					t.Errorf("undecodable ack: %v", err)
					return
				}
				acks = append(acks, ack.Value().Seq)
			})
			r, err := tc.recv(rEP, sEP.Addr())
			if err != nil {
				t.Fatal(err)
			}
			rEP.SetHandler(r.OnDatagram)
			r.SeedExpect(seed)

			// send delivers one packet and returns the acks it drew.
			send := func(idx int, payload []byte) []uint8 {
				t.Helper()
				acks = acks[:0]
				enc, err := codec.EncodePacket(uint8(idx%256), payload)
				if err != nil {
					t.Fatal(err)
				}
				if err := sEP.Send(rEP.Addr(), enc); err != nil {
					t.Fatal(err)
				}
				if err := sim.RunUntilIdle(100); err != nil {
					t.Fatal(err)
				}
				return acks
			}

			if got := send(seed-1, []byte("old")); len(got) != 1 || got[0] != uint8((seed-1)%256) {
				t.Errorf("seq %d: acks %v, want one re-ack of %d", seed-1, got, uint8((seed-1)%256))
			}
			if n := len(r.Delivered()); n != 0 || r.Expect() != seed {
				t.Fatalf("seq %d: delivered %d, Expect %d; want 0 and %d", seed-1, n, r.Expect(), seed)
			}

			if got := send(seed, []byte("new")); len(got) != 1 || got[0] != uint8(seed%256) {
				t.Errorf("seq %d: acks %v, want one ack of %d", seed, got, uint8(seed%256))
			}
			if d := r.Delivered(); len(d) != 1 || !bytes.Equal(d[0], []byte("new")) {
				t.Fatalf("seq %d: delivered %q, want [new]", seed, d)
			}
			if r.Expect() != seed+1 {
				t.Errorf("Expect %d after delivery, want %d", r.Expect(), seed+1)
			}
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
