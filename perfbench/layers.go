package main

import (
	"fmt"
	"strings"
	"time"

	"protodsl/internal/arq"
	"protodsl/internal/dsl"
	"protodsl/perfbench/span"
)

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
// A unit is one flow (bulk-gbn), one session (session-churn) or one
// checker run (verify-gbn).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"unit_p50_ms", "ms"},
	{"units_per_s", "1/s"},
	{"cpu_ms_per_unit", "ms"},
	{"peak_rss_MB", "MB"},
}

// perLayer are the metrics a traced run reports, on every workload. A
// layer a workload never enters reports 0.
var perLayer = []metricDef{
	{"rtnet.send_ns", "ns"},
	{"rtnet.frames_per_gso_burst", "frames"},
	{"rtnet.frames_per_gro_bundle", "frames"},
	{"rtnet.shed_share", "share"},
	{"rtnet.drop_share", "share"},
	{"protoserve.cpu_user_ms", "ms/unit"},
	{"protoserve.cpu_sys_ms", "ms/unit"},
	{"arq.recv_ns", "ns"},
	{"arq.ack_ns", "ns"},
	{"arq.retransmit_share", "share"},
	{"arq.timeouts", "count"},
	{"arq.rto_backoffs", "count"},
	{"wire.decode_ns", "ns"},
	{"wire.encode_ns", "ns"},
	{"timerwheel.arms_per_frame", "1/frame"},
	{"timerwheel.cancels_per_frame", "1/frame"},
	{"session.connect_p50_ms", "ms"},
	{"session.connect_p99_ms", "ms"},
	{"session.stalled_share", "share"},
	{"session.accept_ns", "ns"},
	{"session.store_bytes_per_session", "B"},
	{"session.handshakes_ok", "count"},
	{"session.drop_no_session_share", "share"},
	{"verify.states", "count"},
	{"verify.transitions", "count"},
	{"verify.dup_hits", "count"},
	{"verify.frontier_peak", "count"},
	{"verify.arena_bytes_per_state", "B"},
	{"verify.states_per_s", "1/s"},
	{"verify.allocs_per_state", "count"},
	{"verify.alloc_bytes_per_state", "B"},
	{"verify.gc_cpu_share", "share"},
	{"verify.build_ms", "ms"},
	{"dsl.compile_ms", "ms"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.trace_overhead", "x"},
	{"bench.untraced_share", "share"},
}

// finish keeps exactly the metric set the run's mode reports, with
// every metric present: a layer the workload never enters reads 0.
func (r *result) finish(trace bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok {
			m = metric{Unit: d.unit}
		}
		out[d.name] = m
	}
	r.metrics = out
}

// compileMS times dsl.Compile over the given sources (median of five):
// the spec compile every process of a workload pays at start-up.
func compileMS(srcs ...string) (float64, error) {
	var xs []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		for _, s := range srcs {
			if _, _, err := dsl.Compile(s); err != nil {
				return 0, err
			}
		}
		xs = append(xs, ms(time.Since(t)))
	}
	return median(xs), nil
}

// servingTrace is what a serving workload's traced invocation gathers:
// an untraced pass against protoserve and a traced pass against the
// twin, over the same load.
type servingTrace struct {
	units, tracedUnits int
	// cpuUntraced and cpuTraced are server plus client CPU over each
	// pass's measured interval.
	cpuUntraced, cpuTraced time.Duration
	// srvUser and srvSys are protoserve's own CPU over the untraced
	// pass, whole process lifetimes.
	srvUser, srvSys time.Duration
	srvTotals       map[string]uint64 // untraced pass, summed over servers
	cliTotals       map[string]uint64 // untraced pass, summed over client nodes
	frames          [][]byte          // traced pass, a sample of received data frames

	// Traced pass, folded in per server so spans need not outlive it.
	self          [span.NumNames]time.Duration
	count         [span.NumNames]int
	cliSends      int // client RtnetSend spans: frames the client staged
	arms, cancels uint64
}

// addSpans folds one traced server's and its client's spans in.
func (st *servingTrace) addSpans(server, client []*span.Log) {
	srvSelf, srvCount := span.SelfTimes(server)
	cliSelf, cliCount := span.SelfTimes(client)
	for i := range st.self {
		st.self[i] += srvSelf[i] + cliSelf[i]
		st.count[i] += srvCount[i] + cliCount[i]
	}
	st.cliSends += cliCount[span.RtnetSend]
	for _, l := range client {
		st.arms += l.Arms
		st.cancels += l.Cancels
	}
}

func addTotals(dst *map[string]uint64, src map[string]uint64) {
	if *dst == nil {
		*dst = map[string]uint64{}
	}
	for k, v := range src {
		(*dst)[k] += v
	}
}

// report sets the per-layer metrics shared by the serving workloads
// and prints the accounting of the traced CPU across the layers.
func (st *servingTrace) report(r *result) error {
	self, count := st.self, st.count
	per := func(n span.Name) float64 { return share(float64(self[n]), float64(count[n])) }
	r.set("rtnet.send_ns", per(span.RtnetSend), "ns")
	r.set("arq.recv_ns", per(span.ArqRecv), "ns")
	r.set("arq.ack_ns", per(span.ArqAck), "ns")
	r.set("session.accept_ns", per(span.SessionAccept), "ns")

	sum := func(k string) float64 { return float64(st.srvTotals[k] + st.cliTotals[k]) }
	r.set("rtnet.frames_per_gso_burst", share(sum("gso_segments"), sum("gso_bursts")), "frames")
	r.set("rtnet.frames_per_gro_bundle", share(sum("gro_segments"), sum("gro_bundles")), "frames")
	r.set("rtnet.shed_share", share(sum("sheds"), sum("frames_in")+sum("sheds")), "share")
	var drops float64
	for _, totals := range []map[string]uint64{st.srvTotals, st.cliTotals} {
		for k, v := range totals {
			if strings.HasPrefix(k, "drop_") {
				drops += float64(v)
			}
		}
	}
	r.set("rtnet.drop_share", share(drops, sum("frames_in")), "share")
	r.set("protoserve.cpu_user_ms", share(ms(st.srvUser), float64(st.units)), "ms/unit")
	r.set("protoserve.cpu_sys_ms", share(ms(st.srvSys), float64(st.units)), "ms/unit")
	cliOut := float64(st.cliTotals["frames_out"])
	r.set("arq.retransmit_share", share(float64(st.cliTotals["retransmits"]), cliOut), "share")
	r.set("arq.timeouts", float64(st.cliTotals["timeouts"]), "count")
	r.set("arq.rto_backoffs", float64(st.cliTotals["rto_backoffs"]), "count")

	r.set("timerwheel.arms_per_frame", share(float64(st.arms), float64(st.cliSends)), "1/frame")
	r.set("timerwheel.cancels_per_frame", share(float64(st.cancels), float64(st.cliSends)), "1/frame")

	dec, enc, err := replayCodec(st.frames)
	if err != nil {
		return err
	}
	r.set("wire.decode_ns", dec, "ns")
	r.set("wire.encode_ns", enc, "ns")

	untracedPer := share(float64(st.cpuUntraced), float64(st.units))
	tracedPer := share(float64(st.cpuTraced), float64(st.tracedUnits))
	r.set("bench.trace_overhead", share(tracedPer, untracedPer), "x")

	// Accounting: the traced pass's CPU is the layers' self time plus
	// what no span covers (socket reads and flushes in rtnet's own
	// goroutines, GC, the runtime, the load generator's bookkeeping).
	layers := map[string]time.Duration{}
	var spanned time.Duration
	for n := span.Name(0); n < span.NumNames; n++ {
		if n.Async() {
			continue
		}
		layer, _, _ := strings.Cut(n.String(), ".")
		layers[layer] += self[n]
		spanned += self[n]
	}
	rest := st.cpuTraced - spanned
	r.set("bench.untraced_share", share(float64(rest), float64(st.cpuTraced)), "share")
	fmt.Printf("traced CPU %.1f ms over %d units (server+client):\n", ms(st.cpuTraced), st.tracedUnits)
	for _, layer := range []string{"rtnet", "arq", "session"} {
		fmt.Printf("  %-9s self %9.1f ms  %5.1f%%\n", layer, ms(layers[layer]), 100*share(float64(layers[layer]), float64(st.cpuTraced)))
	}
	fmt.Printf("  %-9s      %9.1f ms  %5.1f%%\n", "untraced", ms(rest), 100*share(float64(rest), float64(st.cpuTraced)))
	for n := span.Name(0); n < span.NumNames; n++ {
		if count[n] > 0 {
			fmt.Printf("  span %-18s n=%-8d self %9.1f ms\n", n, count[n], ms(self[n]))
		}
	}
	return nil
}

// maxFrames bounds the codec replay sample kept across a run.
const maxFrames = 8192

// appendSample adds captured frames to the replay sample, up to
// maxFrames.
func appendSample(dst, frames [][]byte) [][]byte {
	if room := maxFrames - len(dst); len(frames) > room {
		frames = frames[:max(room, 0)]
	}
	return append(dst, frames...)
}

// replayCodec replays captured data frames through the slot codec the
// engines use: DecodePacketInPlace per frame, AppendEncodeAck for its
// sequence number. It returns ns per frame for each, the median of
// several rounds.
func replayCodec(frames [][]byte) (decNs, encNs float64, err error) {
	if len(frames) == 0 {
		return 0, 0, nil
	}
	codec, err := arq.NewCodec()
	if err != nil {
		return 0, 0, err
	}
	seqs := make([]uint8, len(frames))
	var buf []byte
	var dec, enc []float64
	for round := 0; round < 15; round++ {
		t := time.Now()
		for rep := 0; rep < 10; rep++ {
			for i, f := range frames {
				pkt, err := codec.DecodePacketInPlace(f)
				if err != nil {
					return 0, 0, fmt.Errorf("replaying a captured frame: %w", err)
				}
				seqs[i] = pkt.Value().Seq
			}
		}
		dec = append(dec, float64(time.Since(t))/float64(10*len(frames)))
		t = time.Now()
		for rep := 0; rep < 10; rep++ {
			for _, s := range seqs {
				if buf, err = codec.AppendEncodeAck(buf[:0], s); err != nil {
					return 0, 0, err
				}
			}
		}
		enc = append(enc, float64(time.Since(t))/float64(10*len(frames)))
	}
	return median(dec), median(enc), nil
}
