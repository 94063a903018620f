package arq

import (
	"bytes"
	"testing"
	"time"

	"protodsl/internal/netsim"
)

func TestGBNPerfectLink(t *testing.T) {
	payloads := makePayloads(50, 32)
	res, err := RunTransferGBN(WindowConfig{
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

func TestGBNLossyInOrderExactlyOnce(t *testing.T) {
	payloads := makePayloads(60, 16)
	for seed := int64(0); seed < 4; seed++ {
		res, err := RunTransferGBN(WindowConfig{
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

// TestGBNWindowBeatsStopAndWaitOnDelay: the point of the extension — on
// a high-latency link the windowed sender's goodput dominates window=1.
func TestGBNWindowBeatsStopAndWait(t *testing.T) {
	payloads := makePayloads(40, 64)
	link := netsim.LinkParams{Delay: 20 * time.Millisecond}
	run := func(window int) *WindowResult {
		res, err := RunTransferGBN(WindowConfig{
			Seed: 1, Window: window, Link: link, RTO: 200 * time.Millisecond,
		}, payloads)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Fatalf("window %d failed", window)
		}
		return res
	}
	w1 := run(1)
	w8 := run(8)
	if w8.Duration >= w1.Duration {
		t.Errorf("window 8 (%s) not faster than window 1 (%s)", w8.Duration, w1.Duration)
	}
	if w8.Goodput() < 4*w1.Goodput() {
		t.Errorf("window 8 goodput %.0f not >= 4x window 1 %.0f", w8.Goodput(), w1.Goodput())
	}
}

func TestGBNSeqWrap(t *testing.T) {
	payloads := makePayloads(300, 4)
	res, err := RunTransferGBN(WindowConfig{
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

func TestGBNDeadLinkGivesUp(t *testing.T) {
	res, err := RunTransferGBN(WindowConfig{
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

func TestGBNWindowValidation(t *testing.T) {
	if _, err := RunTransferGBN(WindowConfig{Window: 128}, nil); err == nil {
		t.Error("window 128 accepted (breaks 8-bit seq disambiguation)")
	}
	if _, err := RunTransferGBN(WindowConfig{Window: -1}, nil); err == nil {
		t.Error("negative window accepted")
	}
}

// Satellite of the event-core PR: sequence wrap with the window at the
// 8-bit ceiling. 300+ packets with Window 127 wrap the sequence space
// twice; delivery must stay in order and exactly-once even with loss and
// duplication producing stale cumulative acks.
func TestGBNSeqWrapMaxWindow(t *testing.T) {
	payloads := makePayloads(300, 6)
	for _, window := range []int{120, 127} {
		res, err := RunTransferGBN(WindowConfig{
			Seed: 3, Window: window,
			Link:       netsim.LinkParams{Delay: time.Millisecond, LossProb: 0.08, DupProb: 0.1},
			RTO:        30 * time.Millisecond,
			MaxRetries: 60,
		}, payloads)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK || len(res.Delivered) != 300 {
			t.Fatalf("window %d: ok=%v delivered=%d", window, res.OK, len(res.Delivered))
		}
		for i := range payloads {
			if !bytes.Equal(res.Delivered[i], payloads[i]) {
				t.Fatalf("window %d: payload %d wrong after wrap", window, i)
			}
		}
	}
}

// A stale cumulative ack whose sequence number is outside the current
// window must be ignored: it must not move base, complete the transfer,
// or reset the retry counter's progress.
func TestGBNStaleAckOutsideWindowIgnored(t *testing.T) {
	sim := netsim.New(1)
	sEP, err := sim.NewEndpoint("sender")
	if err != nil {
		t.Fatal(err)
	}
	rEP, err := sim.NewEndpoint("receiver")
	if err != nil {
		t.Fatal(err)
	}
	// Data path dead, ack path alive: the receiver never sees anything,
	// so any ack the sender receives is stale by construction.
	sim.ConnectDirectional(sEP, rEP, netsim.LinkParams{LossProb: 1})
	sim.ConnectDirectional(rEP, sEP, netsim.LinkParams{Delay: time.Millisecond})

	flow, err := StartGBN(sim, sEP, rEP, FlowConfig{
		Window: 4, RTO: 50 * time.Millisecond, MaxRetries: 100,
	}, makePayloads(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Window is [0,4): seqs 0..3 in flight. Inject acks for seqs outside
	// the window (and one for in-window-but-from-nowhere 200).
	codec, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	for _, stale := range []uint8{5, 100, 200, 255} {
		enc, err := codec.EncodeAck(stale)
		if err != nil {
			t.Fatal(err)
		}
		if err := rEP.Send(sEP.Addr(), enc); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run(10 * time.Millisecond) // deliver the stale acks, before any RTO
	if flow.Done() {
		t.Fatal("stale acks completed the transfer")
	}
	if flow.send.base != 0 || flow.send.next != 4 {
		t.Errorf("stale acks moved the window: base=%d next=%d, want 0/4",
			flow.send.base, flow.send.next)
	}
}

// Exact-duration pin for go-back-N: with the window covering the whole
// transfer on a perfect link, every packet is sent at t=0, delivered at
// D, and acked at 2D — so the transfer must end at exactly 2D, not
// 2D + RTO as the pre-fix event core reported.
func TestGBNExactDurationNoTrailingRTO(t *testing.T) {
	const d = 5 * time.Millisecond
	res, err := RunTransferGBN(WindowConfig{
		Seed: 1, Window: 8,
		Link: netsim.LinkParams{Delay: d},
		RTO:  400 * time.Millisecond,
	}, makePayloads(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("transfer failed")
	}
	if res.Duration != 2*d {
		t.Errorf("Duration = %s, want exactly %s (final ack delivery, no trailing RTO)",
			res.Duration, 2*d)
	}
}

func TestGBNEmptyTransfer(t *testing.T) {
	res, err := RunTransferGBN(WindowConfig{Seed: 1, Window: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || len(res.Delivered) != 0 {
		t.Errorf("empty: ok=%v delivered=%d", res.OK, len(res.Delivered))
	}
}
