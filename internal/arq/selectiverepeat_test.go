package arq

import (
	"bytes"
	"testing"
	"time"

	"protodsl/internal/netsim"
)

func TestSRPerfectLink(t *testing.T) {
	payloads := makePayloads(50, 32)
	res, err := RunTransferSR(WindowConfig{
		Seed: 1, Window: 8,
		Link: netsim.LinkParams{Delay: time.Millisecond},
	}, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || len(res.Delivered) != 50 {
		t.Fatalf("ok=%v delivered=%d", res.OK, len(res.Delivered))
	}
	for i := range payloads {
		if !bytes.Equal(res.Delivered[i], payloads[i]) {
			t.Fatalf("payload %d mismatch", i)
		}
	}
	if res.Retransmits != 0 {
		t.Errorf("retransmits = %d on perfect link", res.Retransmits)
	}
}

func TestSRLossyInOrderExactlyOnce(t *testing.T) {
	payloads := makePayloads(60, 16)
	for seed := int64(0); seed < 4; seed++ {
		res, err := RunTransferSR(WindowConfig{
			Seed: seed, Window: 6,
			Link:       netsim.LinkParams{Delay: 2 * time.Millisecond, LossProb: 0.15, DupProb: 0.05},
			RTO:        25 * time.Millisecond,
			MaxRetries: 60,
		}, payloads)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Fatalf("seed %d: failed", seed)
		}
		if len(res.Delivered) != len(payloads) {
			t.Fatalf("seed %d: delivered %d/%d", seed, len(res.Delivered), len(payloads))
		}
		for i := range payloads {
			if !bytes.Equal(res.Delivered[i], payloads[i]) {
				t.Fatalf("seed %d: in-order exactly-once violated at %d", seed, i)
			}
		}
	}
}

// The point of selective repeat: under loss it retransmits only the lost
// packets, where go-back-N resends whole windows.
func TestSRRetransmitsLessThanGBNUnderLoss(t *testing.T) {
	payloads := makePayloads(80, 32)
	var srRetrans, gbnRetrans int
	for seed := int64(0); seed < 5; seed++ {
		link := netsim.LinkParams{Delay: 5 * time.Millisecond, LossProb: 0.2}
		sr, err := RunTransferSR(WindowConfig{
			Seed: seed, Window: 16, Link: link,
			RTO: 40 * time.Millisecond, MaxRetries: 60,
		}, payloads)
		if err != nil {
			t.Fatal(err)
		}
		gbn, err := RunTransferGBN(WindowConfig{
			Seed: seed, Window: 16, Link: link,
			RTO: 40 * time.Millisecond, MaxRetries: 60,
		}, payloads)
		if err != nil {
			t.Fatal(err)
		}
		if !sr.OK || !gbn.OK {
			t.Fatalf("seed %d: sr ok=%v gbn ok=%v", seed, sr.OK, gbn.OK)
		}
		srRetrans += sr.Retransmits
		gbnRetrans += gbn.Retransmits
	}
	if srRetrans >= gbnRetrans {
		t.Errorf("selective repeat retransmitted %d >= go-back-N %d under 20%% loss",
			srRetrans, gbnRetrans)
	}
}

func TestSRSeqWrap(t *testing.T) {
	payloads := makePayloads(300, 4)
	res, err := RunTransferSR(WindowConfig{
		Seed: 2, Window: 16,
		Link:       netsim.LinkParams{Delay: time.Millisecond, LossProb: 0.05},
		RTO:        20 * time.Millisecond,
		MaxRetries: 40,
	}, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || len(res.Delivered) != 300 {
		t.Fatalf("ok=%v delivered=%d", res.OK, len(res.Delivered))
	}
	for i := range payloads {
		if !bytes.Equal(res.Delivered[i], payloads[i]) {
			t.Fatalf("payload %d wrong after wrap", i)
		}
	}
}

func TestSRDeadLinkGivesUp(t *testing.T) {
	res, err := RunTransferSR(WindowConfig{
		Seed: 1, Window: 4,
		Link:       netsim.LinkParams{LossProb: 1},
		RTO:        5 * time.Millisecond,
		MaxRetries: 3,
	}, makePayloads(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || len(res.Delivered) != 0 {
		t.Errorf("ok=%v delivered=%d", res.OK, len(res.Delivered))
	}
}

func TestSRWindowValidationAndEmpty(t *testing.T) {
	if _, err := RunTransferSR(WindowConfig{Window: 128}, nil); err == nil {
		t.Error("window 128 accepted")
	}
	res, err := RunTransferSR(WindowConfig{Seed: 1, Window: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || len(res.Delivered) != 0 {
		t.Errorf("empty: ok=%v delivered=%d", res.OK, len(res.Delivered))
	}
}

// Exact-duration pin for selective repeat: single packet, perfect link
// with delay D finishes at exactly 2D — the delivery time of the ack,
// with no trailing-RTO inflation from the cancelled per-packet timer.
func TestSRExactDurationNoTrailingRTO(t *testing.T) {
	const d = 3 * time.Millisecond
	res, err := RunTransferSR(WindowConfig{
		Seed: 1, Window: 4,
		Link: netsim.LinkParams{Delay: d},
		RTO:  500 * time.Millisecond,
	}, makePayloads(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("transfer failed")
	}
	if res.Duration != 2*d {
		t.Errorf("Duration = %s, want exactly %s (ack delivery, no trailing RTO)", res.Duration, 2*d)
	}
}
