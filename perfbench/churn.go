package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"time"

	"protodsl/internal/arq"
	"protodsl/internal/dsl"
	"protodsl/internal/netsim"
	"protodsl/internal/rtnet"
	"protodsl/internal/session"
	"protodsl/perfbench/span"
)

// churnCfg sizes session-churn: sessions arrive open-loop on a seeded
// Poisson schedule at `rate` per second; each does the cookie
// handshake, sends `payloads` x `size` B over SR with window `window`,
// then FIN.
type churnCfg struct {
	rate                   float64
	payloads, size, window int
	setupReps              int
	heartbeat              time.Duration
}

// churnRate is the offered load. Each session holds its flow id for
// about one second (the client's TIME_WAIT), so at 100/s about 100 of
// the 256 flow ids are busy and a free id is always at hand; and at
// about 3 ms per session only one or two sessions overlap, far below
// the 64 simultaneous sessions at which a run stalls for a heartbeat.
// A steady rate under the knee is what lets a later change's effect on
// p99 show rather than the stall.
const churnRate = 100

func churnConfig(smoke bool) churnCfg {
	c := churnCfg{rate: churnRate, payloads: 16, size: 32, window: 8, setupReps: 41, heartbeat: time.Second}
	if smoke {
		c.rate, c.setupReps = 40, 2
	}
	return c
}

// churnSession is one scheduled session. Fields past `payloads` are
// written by the client's shard loop and read by the generator only
// after the session's OnDown has been received.
type churnSession struct {
	due      time.Duration // offset from the schedule's start
	nonce    uint32
	payloads [][]byte

	flow     byte
	late     time.Duration // dispatch time minus due
	estab    bool
	acked    bool
	latency  time.Duration // due until the last payload was acked
	sender   *arq.SRSender
	cli      *session.Client
	err      error
	finished bool
}

// schedule draws one pass's sessions: a Poisson process at cfg.rate
// over d, conditioned on its expected count (so rate*d arrivals, at
// uniformly distributed times), with seeded nonces and payload bytes.
// Fixing the count keeps the offered load identical across seeds.
func schedule(seed uint64, pass int, cfg churnCfg, d time.Duration) []*churnSession {
	rng := rand.New(rand.NewPCG(seed, 1<<32+uint64(pass)))
	n := int(cfg.rate * d.Seconds())
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Int64N(int64(d)))
	}
	slices.Sort(due)
	out := make([]*churnSession, n)
	for k := range out {
		s := &churnSession{due: due[k], nonce: rng.Uint32()}
		buf := make([]byte, cfg.payloads*cfg.size)
		for i := range buf {
			buf[i] = byte(rng.Uint32())
		}
		for i := 0; i < cfg.payloads; i++ {
			s.payloads = append(s.payloads, buf[i*cfg.size:(i+1)*cfg.size:(i+1)*cfg.size])
		}
		out[k] = s
	}
	return out
}

// churnServer is a session server plus the client node driving it.
type churnServer struct {
	srv      *server
	node     *rtnet.Node
	flows    [256]*rtnet.Flow
	peer     netsim.Addr
	stateDir string
	trace    string
	setup    time.Duration // server CPU until ready plus the client node's
}

func (c *churnServer) close() {
	if c.node != nil {
		c.node.Close()
	}
	if c.srv != nil {
		c.srv.kill()
	}
}

// launch starts a session server and the client node, claiming every
// flow id: the set-up a session-churn run pays. Set-up is counted in
// CPU time, which a busy shared host moves less than wall time.
func launchChurn(p params, cfg churnCfg, n int, traced bool) (*churnServer, error) {
	c := &churnServer{stateDir: filepath.Join(p.work, fmt.Sprintf("state-%d", n))}
	if err := os.MkdirAll(c.stateDir, 0o755); err != nil {
		return nil, err
	}
	args := []string{"-variant", "sr", "-window", fmt.Sprint(cfg.window), "-session",
		"-state-dir", c.stateDir, "-heartbeat", cfg.heartbeat.String()}
	bin := filepath.Join(p.bin, "protoserve")
	if traced {
		c.trace = filepath.Join(p.work, fmt.Sprintf("server-%d.gob", n))
		bin, args = filepath.Join(p.bin, "tracedserve"), append(args, "-trace-out", c.trace)
	} else {
		args = append(args, "-stats", "0")
	}
	var err error
	if c.srv, err = startServer(bin, args...); err != nil {
		return nil, err
	}
	cpu0 := selfCPU()
	if c.node, err = rtnet.Listen("127.0.0.1:0", rtnet.Config{Shards: clientShards()}); err != nil {
		c.close()
		return nil, err
	}
	for id := range c.flows {
		if c.flows[id], err = c.node.Flow(byte(id)); err != nil {
			c.close()
			return nil, err
		}
	}
	c.setup = c.srv.ready + selfCPU() - cpu0
	if c.peer, err = c.node.Dial(c.srv.udp); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// churnPass is one pass's outcome.
type churnPass struct {
	sessions  []*churnSession
	ackSpan   time.Duration // schedule start until the last payload acked
	cpu       time.Duration
	end       serverEnd
	srvStats  *serverStats
	cliTotals map[string]uint64
	storeB    int64
	cliLogs   []*span.Log
	dump      *span.Dump
}

func (cp *churnPass) established() int {
	n := 0
	for _, s := range cp.sessions {
		if s.estab {
			n++
		}
	}
	return n
}

// runChurnPass offers one pass's schedule to a launched server, then
// stops it.
func runChurnPass(p params, cfg churnCfg, c *churnServer, sessions []*churnSession, traced bool) (*churnPass, error) {
	defer c.close()
	out := &churnPass{sessions: sessions}
	var rec *span.Recorder
	if traced {
		rec = span.NewRecorder(c.node.Shards())
	}
	// Each session reports its end once; a buffer that size never
	// blocks a shard loop.
	down := make(chan int, len(sessions))
	free := make([]byte, 0, 256)
	for id := 255; id >= 0; id-- {
		free = append(free, byte(id))
	}
	fc := arq.FlowConfig{Window: cfg.window, RTO: 25 * time.Millisecond, MaxRetries: 50}

	var base time.Time
	dispatch := func(k int) error {
		s := sessions[k]
		s.flow = free[len(free)-1]
		free = free[:len(free)-1]
		s.late = time.Since(base) - s.due
		return c.flows[s.flow].Do(func(rt netsim.Runtime, port netsim.Port) {
			sessRT, arqRT := rt, rt
			var log *span.Log
			var mark int64
			if rec != nil {
				log = rec.ForFlow(s.flow)
				sessRT = &span.Runtime{Runtime: rt, Log: log, ID: uint32(k), Timer: span.SessionTimer}
				arqRT = &span.Runtime{Runtime: rt, Log: log, ID: uint32(k), Timer: span.ArqTimer}
				port = &span.Port{Port: port, Log: log, ID: uint32(k), Recv: span.SessionClient}
				i := log.Begin(span.SessionConnect, uint32(k))
				defer log.End(i)
				mark = log.Mark()
			}
			s.cli, s.err = session.Connect(sessRT, port, c.peer, session.ClientConfig{
				Nonce: s.nonce, RTO: 25 * time.Millisecond, MaxRetries: 50,
				HeartbeatEvery: cfg.heartbeat,
				OnEstablished: func() {
					s.estab = true
					var data netsim.Port = s.cli.DataPort()
					if log != nil {
						log.Interval(span.SessionHandshake, uint32(k), mark)
						data = &span.Handlers{Port: data, Log: log, ID: uint32(k), Recv: span.ArqAck}
					}
					var err error
					s.sender, err = arq.AttachSRSender(arqRT, data, c.peer, fc, s.payloads, func() {
						s.latency = time.Since(base) - s.due
						s.acked = s.sender.Err() == nil && s.sender.Result().OK
						s.cli.Close()
					})
					if err != nil {
						s.err = err
						s.cli.Close()
					}
				},
				OnDown: func(err error) {
					if s.err == nil {
						s.err = err
					}
					s.finished = true
					down <- k
				},
			})
			if s.err != nil && !s.finished {
				s.finished = true
				down <- k
			}
		})
	}
	release := func(k int) { free = append(free, sessions[k].flow) }

	if err := c.srv.markCPU(); err != nil {
		return nil, err
	}
	c0 := selfCPU()
	base = time.Now()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	pending := len(sessions)
	for k := 0; k < len(sessions) || pending > 0; {
		var due <-chan time.Time
		if k < len(sessions) && len(free) > 0 {
			wait := sessions[k].due - time.Since(base)
			if wait <= 0 {
				if err := dispatch(k); err != nil {
					return nil, err
				}
				k++
				continue
			}
			timer.Reset(wait)
			due = timer.C
		}
		select {
		case <-due:
		case j := <-down:
			release(j)
			pending--
			timer.Stop()
		case <-time.After(60 * time.Second):
			return nil, fmt.Errorf("session-churn: no session ended within 60s (%d pending)", pending)
		}
	}
	srvCPU, err := c.srv.cpuSince()
	if err != nil {
		return nil, err
	}
	out.cpu = srvCPU + selfCPU() - c0
	for _, s := range sessions {
		if end := s.due + s.latency; s.acked && end > out.ackSpan {
			out.ackSpan = end
		}
	}
	if out.srvStats, err = c.srv.stats(); err != nil {
		return nil, err
	}
	out.cliTotals = c.node.Obs().Snapshot().Totals
	if out.end, err = c.srv.stop(); err != nil {
		return nil, err
	}
	out.storeB = dirBytes(c.stateDir)
	if err := c.node.Close(); err != nil {
		return nil, err
	}
	if traced {
		out.cliLogs = rec.Logs
		if out.dump, err = span.Read(c.trace); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkChurn applies session-churn's correctness checks to a pass.
func checkChurn(res *result, cp *churnPass, cfg churnCfg) {
	est := cp.established()
	ok := cp.srvStats.Totals["handshakes_ok"]
	res.check(ok == uint64(est), "server handshakes_ok %d, client established %d sessions", ok, est)
	rej := cp.srvStats.Totals["cookies_rejected"]
	res.check(rej == 0, "server rejected %d cookies", rej)
	if cp.dump == nil {
		return
	}
	// Byte-exact delivery: the n-th receiver spawned on a flow holds
	// the payloads of the n-th session established on it.
	got := map[[2]int]span.Digest{}
	for _, d := range cp.dump.Digests {
		got[[2]int{int(d.Flow), d.Ordinal}] = d
	}
	var ord [256]int
	for k, s := range cp.sessions {
		if !s.estab {
			continue
		}
		key := [2]int{int(s.flow), ord[s.flow]}
		ord[s.flow]++
		d, found := got[key]
		res.check(found && d.Payloads == cfg.payloads && digest(s.payloads) == d.Sum,
			"session %d (flow %d): delivered bytes differ from the generated payloads", k, s.flow)
	}
}

// runChurn is the session-churn workload.
func runChurn(p params, prov map[string]any) (*result, error) {
	cfg := churnConfig(p.smoke)
	prov["load"] = map[string]any{
		"loop": "open", "arrivals": "poisson", "rate_per_s": cfg.rate, "variant": "sr",
		"window": cfg.window, "payloads_per_session": cfg.payloads, "payload_bytes": cfg.size,
		"heartbeat": cfg.heartbeat.String(), "client_shards": clientShards(), "client_sockets": clientShards(),
	}
	prov["state_dir_fs"] = fsType(p.work)
	fmt.Printf("session-churn: open loop, Poisson arrivals at %g/s; handshake + %d x %d B over SR window %d + FIN; client shards=sockets=%d; state dir on %s\n",
		cfg.rate, cfg.payloads, cfg.size, cfg.window, clientShards(), prov["state_dir_fs"])

	// Set-up is measured over several launches; the last one serves.
	var setups []float64
	launch := func(n int, traced bool) (*churnServer, error) {
		for i := 0; ; i++ {
			c, err := launchChurn(p, cfg, n*100+i, traced)
			if err != nil {
				return nil, err
			}
			setups = append(setups, c.setup.Seconds())
			if i == cfg.setupReps-1 {
				return c, nil
			}
			c.close()
		}
	}
	secs := time.Duration(p.seconds * float64(time.Second))
	res := &result{}
	if !p.trace {
		c, err := launch(0, false)
		if err != nil {
			return nil, err
		}
		cp, err := runChurnPass(p, cfg, c, schedule(p.seed, 0, cfg, secs), false)
		if err != nil {
			return nil, err
		}
		checkChurn(res, cp, cfg)
		var lat []float64
		done := 0
		for _, s := range cp.sessions {
			if s.acked && s.err == nil {
				lat = append(lat, ms(s.latency))
				done++
			} else {
				// A failed session misses every latency limit.
				lat = append(lat, ms(time.Hour))
				res.failed++
			}
		}
		res.attempted = len(cp.sessions)
		p50 := timing("session latency ms (due to last ack)", lat)
		timing("setup s", setups)
		res.set("setup_s", median(setups), "s")
		res.set("unit_p50_ms", p50, "ms")
		// Sessions completed per second from the schedule's start to the
		// last ack: the offered rate while the server keeps up, less once
		// a backlog carries past the schedule's end.
		res.set("units_per_s", share(float64(done), cp.ackSpan.Seconds()), "1/s")
		res.set("cpu_ms_per_unit", share(ms(cp.cpu), float64(done)), "ms")
		res.set("peak_rss_MB", cp.end.peakRSS, "MB")
		res.finish(false)
		return res, nil
	}

	// Traced invocation: an untraced pass against protoserve, then a
	// traced pass against the twin, half the time each.
	c, err := launch(0, false)
	if err != nil {
		return nil, err
	}
	un, err := runChurnPass(p, cfg, c, schedule(p.seed, 0, cfg, secs/2), false)
	if err != nil {
		return nil, err
	}
	checkChurn(res, un, cfg)
	if c, err = launch(1, true); err != nil {
		return nil, err
	}
	tr, err := runChurnPass(p, cfg, c, schedule(p.seed, 1, cfg, secs/2), true)
	if err != nil {
		return nil, err
	}
	checkChurn(res, tr, cfg)

	st := servingTrace{
		units: un.established(), tracedUnits: tr.established(),
		cpuUntraced: un.cpu, cpuTraced: tr.cpu,
		srvUser: un.end.user, srvSys: un.end.sys,
		srvTotals: un.srvStats.Totals, cliTotals: un.cliTotals,
		frames: appendSample(nil, tr.dump.Frames),
	}
	st.addSpans(tr.dump.Logs, tr.cliLogs)
	res.attempted = len(un.sessions) + len(tr.sessions)
	for _, s := range append(append([]*churnSession(nil), un.sessions...), tr.sessions...) {
		if !s.acked || s.err != nil {
			res.failed++
		}
	}
	if err := st.report(res); err != nil {
		return nil, err
	}
	var conn, late []float64
	for _, l := range tr.cliLogs {
		for _, s := range l.Spans {
			if s.Name == span.SessionHandshake {
				conn = append(conn, float64(s.End-s.Start)/1e6)
			}
		}
	}
	stalled := 0
	for _, s := range un.sessions {
		late = append(late, ms(s.late))
		if !s.acked || s.latency >= cfg.heartbeat {
			stalled++
		}
	}
	timing("connect ms (traced pass)", conn)
	timing("generator lateness ms", late)
	res.set("session.connect_p50_ms", median(conn), "ms")
	res.set("session.connect_p99_ms", quantile(conn, 0.99), "ms")
	res.set("session.stalled_share", share(float64(stalled), float64(len(un.sessions))), "share")
	res.set("session.store_bytes_per_session", share(float64(un.storeB), float64(un.established())), "B")
	res.set("session.handshakes_ok", float64(un.srvStats.Totals["handshakes_ok"]), "count")
	res.set("session.drop_no_session_share",
		share(float64(un.srvStats.Totals["drop_no_session"]), float64(un.srvStats.Totals["frames_in"])), "share")
	res.set("bench.gen_late_p99_ms", quantile(late, 0.99), "ms")
	cm, err := compileMS(dsl.ARQSource, dsl.HandshakeSource)
	if err != nil {
		return nil, err
	}
	res.set("dsl.compile_ms", cm, "ms")
	res.finish(true)
	return res, nil
}
