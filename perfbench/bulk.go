package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"time"

	"protodsl/internal/arq"
	"protodsl/internal/dsl"
	"protodsl/internal/netsim"
	"protodsl/internal/rtnet"
	"protodsl/perfbench/span"
)

// bulkCfg sizes bulk-gbn. A closed loop keeps `concurrent` GBN flows in
// flight; each flow sends `payloads` payloads of `size` bytes; an epoch
// is `flows` flows against one fresh server. The receivers keep every
// delivered payload for the life of the server, so an epoch bounds the
// server's memory and makes peak RSS independent of run length.
type bulkCfg struct {
	concurrent, window, payloads, size, flows int
}

func bulkConfig(smoke bool) bulkCfg {
	if smoke {
		return bulkCfg{concurrent: 4, window: 16, payloads: 8, size: 1024, flows: 8}
	}
	return bulkCfg{concurrent: 16, window: 16, payloads: 128, size: 1024, flows: 256}
}

// bulkFlowConfig matches protosim -connect's defaults for a GBN flow.
var bulkFlowConfig = arq.FlowConfig{RTO: 25 * time.Millisecond, MaxRetries: 50}

// epochOut is one bulk epoch's measurements.
type epochOut struct {
	setup     time.Duration // server CPU until ready plus the client node's
	wall      time.Duration
	lat       []float64 // per-flow completion, ms
	cpu       time.Duration
	end       serverEnd
	srvTotals map[string]uint64
	cliTotals map[string]uint64
	cliLogs   []*span.Log
	dump      *span.Dump
}

// fillPayloads writes epoch e's seeded payload bytes into buf and
// slices them per flow.
func fillPayloads(seed uint64, e int, cfg bulkCfg, buf []byte) [][][]byte {
	rng := rand.New(rand.NewPCG(seed, uint64(e)))
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], rng.Uint64())
	}
	flows := make([][][]byte, cfg.flows)
	off := 0
	for f := range flows {
		flows[f] = make([][]byte, cfg.payloads)
		for i := range flows[f] {
			flows[f][i] = buf[off : off+cfg.size : off+cfg.size]
			off += cfg.size
		}
	}
	return flows
}

func runEpoch(p params, cfg bulkCfg, e int, traced bool, buf []byte) (*epochOut, error) {
	payloads := fillPayloads(p.seed, e, cfg, buf)
	var out epochOut
	bin, args := filepath.Join(p.bin, "protoserve"), []string{"-variant", "gbn", "-stats", "0"}
	tracePath := filepath.Join(p.work, fmt.Sprintf("server-%d.gob", e))
	if traced {
		bin, args = filepath.Join(p.bin, "tracedserve"), []string{"-variant", "gbn", "-trace-out", tracePath}
	}

	srv, err := startServer(bin, args...)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	cpu0 := selfCPU()
	node, err := rtnet.Listen("127.0.0.1:0", rtnet.Config{Shards: clientShards()})
	if err != nil {
		return nil, err
	}
	out.setup = srv.ready + selfCPU() - cpu0
	defer node.Close()
	peer, err := node.Dial(srv.udp)
	if err != nil {
		return nil, err
	}
	var rec *span.Recorder
	if traced {
		rec = span.NewRecorder(node.Shards())
	}

	type doneMsg struct {
		id  int
		lat time.Duration
	}
	// Every flow reports once, so a buffer of cfg.flows never blocks
	// the shard loop that sends.
	done := make(chan doneMsg, cfg.flows)
	senders := make([]*arq.GBNSender, cfg.flows)
	start := func(id int) error {
		f, err := node.Flow(byte(id))
		if err != nil {
			return err
		}
		t := time.Now()
		var aerr error
		err = f.Do(func(rt netsim.Runtime, port netsim.Port) {
			if rec != nil {
				log := rec.ForFlow(byte(id))
				rt = &span.Runtime{Runtime: rt, Log: log, ID: uint32(id), Timer: span.ArqTimer}
				port = &span.Port{Port: port, Log: log, ID: uint32(id), Recv: span.ArqAck}
			}
			fc := bulkFlowConfig
			fc.Window = cfg.window
			senders[id], aerr = arq.AttachGBNSender(rt, port, peer, fc, payloads[id], func() {
				done <- doneMsg{id, time.Since(t)}
			})
		})
		if err != nil {
			return err
		}
		return aerr
	}

	if err := srv.markCPU(); err != nil {
		return nil, err
	}
	c0 := selfCPU()
	begin := time.Now()
	next := 0
	for ; next < cfg.concurrent && next < cfg.flows; next++ {
		if err := start(next); err != nil {
			return nil, err
		}
	}
	for finished := 0; finished < cfg.flows; finished++ {
		select {
		case d := <-done:
			out.lat = append(out.lat, ms(d.lat))
		case <-time.After(60 * time.Second):
			return nil, fmt.Errorf("epoch %d: %d of %d flows unfinished after 60s", e, cfg.flows-finished, cfg.flows)
		}
		if next < cfg.flows {
			if err := start(next); err != nil {
				return nil, err
			}
			next++
		}
	}
	out.wall = time.Since(begin)
	srvCPU, err := srv.cpuSince()
	if err != nil {
		return nil, err
	}
	out.cpu = srvCPU + selfCPU() - c0

	for id, s := range senders {
		r := s.Result()
		if err := s.Err(); err != nil || !r.OK {
			return nil, fmt.Errorf("epoch %d: flow %d not acked in full (ok=%v err=%v)", e, id, r.OK, err)
		}
	}
	st, err := srv.stats()
	if err != nil {
		return nil, err
	}
	out.srvTotals = st.Totals
	if st.Flows != uint64(cfg.flows) {
		return nil, fmt.Errorf("epoch %d: server counted %d flows, client ran %d", e, st.Flows, cfg.flows)
	}
	if n := st.Totals["panics_recovered"]; n != 0 {
		return nil, fmt.Errorf("epoch %d: server recovered %d panics", e, n)
	}
	out.cliTotals = node.Obs().Snapshot().Totals
	if out.end, err = srv.stop(); err != nil {
		return nil, err
	}
	if err := node.Close(); err != nil {
		return nil, err
	}
	if traced {
		out.cliLogs = rec.Logs
		if out.dump, err = span.Read(tracePath); err != nil {
			return nil, err
		}
		// Byte-exact delivery: every receiver's digest matches the
		// payloads generated for its flow.
		got := map[byte]span.Digest{}
		for _, d := range out.dump.Digests {
			got[d.Flow] = d
		}
		for id := range payloads {
			d, ok := got[byte(id)]
			if !ok || d.Payloads != cfg.payloads || digest(payloads[id]) != d.Sum {
				return nil, fmt.Errorf("epoch %d: flow %d delivered bytes differ from the generated payloads", e, id)
			}
		}
	}
	return &out, nil
}

// runBulk is the bulk-gbn workload: epochs until the time is spent.
func runBulk(p params, prov map[string]any) (*result, error) {
	cfg := bulkConfig(p.smoke)
	prov["load"] = map[string]any{
		"loop": "closed", "variant": "gbn", "concurrent_flows": cfg.concurrent,
		"window": cfg.window, "payloads_per_flow": cfg.payloads, "payload_bytes": cfg.size,
		"flows_per_server": cfg.flows, "client_shards": clientShards(), "client_sockets": clientShards(),
	}
	fmt.Printf("bulk-gbn: closed loop, %d concurrent GBN flows (window %d, %d x %d B), %d flows per server; client shards=sockets=%d\n",
		cfg.concurrent, cfg.window, cfg.payloads, cfg.size, cfg.flows, clientShards())
	buf := make([]byte, cfg.flows*cfg.payloads*cfg.size)
	flowMB := float64(cfg.payloads*cfg.size) / 1e6

	// epochs runs epochs for at least d and at least min of them,
	// handing each to use as it finishes; nothing else keeps them, so a
	// traced epoch's spans are dropped once folded in.
	var e int
	epochs := func(d time.Duration, min int, traced bool, use func(*epochOut)) error {
		t := time.Now()
		for n := 0; n < min || time.Since(t) < d; n++ {
			o, err := runEpoch(p, cfg, e, traced, buf)
			if err != nil {
				return err
			}
			e++
			use(o)
		}
		return nil
	}
	secs := time.Duration(p.seconds * float64(time.Second))
	res := &result{}
	if !p.trace {
		var setup, rate, cpu, rss, lat []float64
		err := epochs(secs, 3, false, func(o *epochOut) {
			setup = append(setup, o.setup.Seconds())
			rate = append(rate, float64(cfg.flows)/o.wall.Seconds())
			cpu = append(cpu, ms(o.cpu)/float64(cfg.flows))
			rss = append(rss, o.end.peakRSS)
			lat = append(lat, o.lat...)
		})
		if err != nil {
			return nil, err
		}
		res.attempted = len(lat)
		p50 := timing("flow completion ms", lat)
		timing("setup s", setup)
		res.set("setup_s", median(setup), "s")
		res.set("unit_p50_ms", p50, "ms")
		res.set("units_per_s", median(rate), "1/s")
		res.set("cpu_ms_per_unit", median(cpu), "ms")
		res.set("peak_rss_MB", median(rss), "MB")
		fmt.Printf("bulk-gbn: %d epochs; goodput %.2f MB/s, %.2f CPU ms/MB (payload bytes, 1 MB = 1e6 B)\n",
			len(rate), median(rate)*flowMB, median(cpu)/flowMB)
		res.finish(false)
		return res, nil
	}

	// Traced invocation: half the time untraced against protoserve,
	// half against the traced twin.
	var st servingTrace
	err := epochs(secs/2, 2, false, func(o *epochOut) {
		st.units += cfg.flows
		st.cpuUntraced += o.cpu
		st.srvUser += o.end.user
		st.srvSys += o.end.sys
		addTotals(&st.srvTotals, o.srvTotals)
		addTotals(&st.cliTotals, o.cliTotals)
	})
	if err != nil {
		return nil, err
	}
	err = epochs(secs/2, 2, true, func(o *epochOut) {
		st.tracedUnits += cfg.flows
		st.cpuTraced += o.cpu
		st.addSpans(o.dump.Logs, o.cliLogs)
		st.frames = appendSample(st.frames, o.dump.Frames)
	})
	if err != nil {
		return nil, err
	}
	res.attempted = st.units + st.tracedUnits
	if err := st.report(res); err != nil {
		return nil, err
	}
	c, err := compileMS(dsl.ARQSource)
	if err != nil {
		return nil, err
	}
	res.set("dsl.compile_ms", c, "ms")
	res.finish(true)
	return res, nil
}
