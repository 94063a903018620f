package arq

import (
	"fmt"
	"time"

	"protodsl/internal/faults"
	"protodsl/internal/netsim"
	"protodsl/internal/obs"
)

// Config parameterises a simulated transfer.
type Config struct {
	// Link is applied in both directions (data and acks share fate).
	Link netsim.LinkParams
	// RTO is the retransmission timeout. Zero selects 50 ms.
	RTO time.Duration
	// MaxRetries bounds retransmissions per packet. Zero selects 10.
	MaxRetries int
	// Seed seeds the simulator PRNG.
	Seed int64
	// EventBudget bounds total simulator events (livelock guard). Zero
	// selects a budget proportional to the workload.
	EventBudget int
	// Faults, if non-nil, layers the fault schedule over the link, one
	// private injector per direction (instance ids 0 and 1).
	Faults *faults.Schedule
}

// Result reports a completed transfer.
type Result struct {
	// OK is true when every payload was delivered and acknowledged and
	// the sender's machine ended in Sent.
	OK bool
	// SenderState is the sender machine's final state: Sent on success,
	// Timeout on failure — and never anything else (§3.4 guarantee 4).
	SenderState string
	// Delivered are the payloads the receiver accepted, in order.
	Delivered [][]byte
	// Duration is the virtual time the transfer took.
	Duration time.Duration

	Sender   SenderStats
	Receiver ReceiverStats
	Network  netsim.Stats
	// Obs is the simulator's observability snapshot (counters, RTT
	// histogram), taken at transfer end. Nil outside RunTransfer.
	Obs *obs.Snapshot
}

// RunTransfer runs a complete stop-and-wait transfer of payloads across a
// simulated link and returns the outcome. Runs are deterministic in
// (Config, payloads).
func RunTransfer(cfg Config, payloads [][]byte) (*Result, error) {
	if cfg.RTO == 0 {
		cfg.RTO = 50 * time.Millisecond
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 10
	}
	if cfg.EventBudget == 0 {
		cfg.EventBudget = 10000 + 200*len(payloads)*(cfg.MaxRetries+1)
	}

	sim, sEP, rEP, err := newSimPair(cfg.Seed, cfg.Link, cfg.Faults)
	if err != nil {
		return nil, err
	}

	recv, err := NewReceiver(sim, rEP, sEP.Addr())
	if err != nil {
		return nil, err
	}
	send, err := NewSender(sim, sEP, rEP.Addr(), payloads, cfg.RTO, cfg.MaxRetries)
	if err != nil {
		return nil, err
	}

	send.Start()
	if err := sim.RunUntilIdle(cfg.EventBudget); err != nil {
		return nil, fmt.Errorf("arq transfer: %w", err)
	}
	if err := send.Err(); err != nil {
		return nil, fmt.Errorf("arq transfer: sender: %w", err)
	}
	if err := recv.Err(); err != nil {
		return nil, fmt.Errorf("arq transfer: receiver: %w", err)
	}
	if err := recv.Close(); err != nil {
		return nil, fmt.Errorf("arq transfer: close: %w", err)
	}

	return &Result{
		OK:          send.OK(),
		SenderState: send.State(),
		Delivered:   recv.Delivered(),
		Duration:    sim.Now(),
		Sender:      send.Stats(),
		Receiver:    recv.Stats(),
		Network:     sim.Stats(),
		Obs:         sim.Obs().Snapshot(),
	}, nil
}

// Goodput returns delivered payload bytes per second of virtual time.
func (r *Result) Goodput() float64 { return goodput(r.Delivered, r.Duration) }

func goodput(delivered [][]byte, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	var bytes int
	for _, p := range delivered {
		bytes += len(p)
	}
	return float64(bytes) / d.Seconds()
}
