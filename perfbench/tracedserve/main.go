// Command tracedserve is the benchmark's traced twin of protoserve. It
// makes the same public calls protoserve's run makes (rtnet.Listen,
// Serve or ServeSession, the arq receivers, obs.Handler) and adds spans
// around the accept callbacks, each receiver's OnDatagram and every
// port Send. On SIGINT it closes the node and writes the spans, a
// sample of received data frames and a SHA-256 of every receiver's
// delivered payloads to -trace-out.
//
//	tracedserve -listen 127.0.0.1:0 -http 127.0.0.1:0 -variant gbn -trace-out spans.gob
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"time"

	"protodsl/internal/arq"
	"protodsl/internal/netsim"
	"protodsl/internal/obs"
	"protodsl/internal/rtnet"
	"protodsl/internal/session"
	"protodsl/perfbench/span"
)

// framesPerShard bounds the sample of received data frames kept for
// the codec replay.
const framesPerShard = 2048

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracedserve:", err)
		os.Exit(1)
	}
}

// recv is what both receiver families offer.
type recv interface {
	OnDatagram(netsim.Addr, []byte)
	Expect() uint64
	SeedExpect(uint64)
	Delivered() [][]byte
}

func run() error {
	var (
		listen   = flag.String("listen", "127.0.0.1:0", "UDP address to listen on")
		variant  = flag.String("variant", "gbn", "ARQ variant: gbn or sr")
		window   = flag.Int("window", 32, "receive window (sr)")
		httpAddr = flag.String("http", "127.0.0.1:0", "stats endpoint address")
		sess     = flag.Bool("session", false, "gate flows behind the session handshake")
		stateDir = flag.String("state-dir", "", "with -session: snapshot directory")
		beat     = flag.Duration("heartbeat", time.Second, "with -session: liveness sweep interval")
		out      = flag.String("trace-out", "", "write spans, frames and digests here on exit")
	)
	flag.Parse()
	if *variant != "gbn" && *variant != "sr" {
		return fmt.Errorf("unknown variant %q", *variant)
	}
	if *out == "" {
		return fmt.Errorf("-trace-out is required")
	}
	node, err := rtnet.Listen(*listen, rtnet.Config{})
	if err != nil {
		return err
	}
	rec := span.NewRecorder(node.Shards())
	frames := make([][][]byte, node.Shards())
	// receivers[f] lists flow f's receivers in spawn order. Each flow
	// is only touched by its own shard loop.
	var receivers [256][]recv
	var flows atomic.Uint64
	cfg := arq.FlowConfig{Window: *window}

	spawn := func(port netsim.Port, peer netsim.Addr, flow byte, acceptName span.Name) (recv, func(netsim.Addr, []byte)) {
		log := rec.ForFlow(flow)
		i := log.Begin(acceptName, uint32(flow))
		defer log.End(i)
		tp := &span.Port{Port: port, Log: log, ID: uint32(flow)}
		var r recv
		if *variant == "sr" {
			sr, err := arq.NewSRReceiver(tp, peer, cfg)
			if err != nil {
				return nil, nil
			}
			r = sr
		} else {
			gbn, err := arq.NewGBNReceiver(tp, peer)
			if err != nil {
				return nil, nil
			}
			r = gbn
		}
		receivers[flow] = append(receivers[flow], r)
		flows.Add(1)
		shard := int(flow) % node.Shards()
		h := log.Handler(span.ArqRecv, uint32(flow), r.OnDatagram)
		return r, func(from netsim.Addr, data []byte) {
			if len(frames[shard]) < framesPerShard {
				frames[shard] = append(frames[shard], append([]byte(nil), data...))
			}
			h(from, data)
		}
	}

	if *sess {
		if *stateDir != "" {
			if err := os.MkdirAll(*stateDir, 0o755); err != nil {
				return err
			}
		}
		err = node.ServeSession(rtnet.SessionConfig{StateDir: *stateDir, HeartbeatEvery: *beat},
			func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte, resume *session.Resume) *session.Engine {
				r, h := spawn(port, peer, flow, span.SessionAccept)
				if r == nil {
					return nil
				}
				if resume != nil {
					r.SeedExpect(resume.Expect)
				}
				return &session.Engine{Handle: h, Progress: r.Expect}
			})
	} else {
		err = node.Serve(func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte) func(netsim.Addr, []byte) {
			_, h := spawn(port, peer, flow, span.RtnetAccept)
			return h
		})
	}
	if err != nil {
		node.Close()
		return err
	}

	ln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		node.Close()
		return err
	}
	srv := &http.Server{Handler: obs.Handler(node.Obs(), func() map[string]uint64 {
		return map[string]uint64{"flows": flows.Load()}
	})}
	go func() { _ = srv.Serve(ln) }()
	fmt.Printf("tracedserve: %s on udp://%s (shards=%d sockets=%d)\n", *variant, node.Addr(), node.Shards(), node.Sockets())
	fmt.Printf("tracedserve: stats on http://%s/metrics\n", ln.Addr())

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	<-interrupt
	signal.Stop(interrupt)
	srv.Close()
	// Close quiesces the shard loops, so the logs and receivers below
	// are no longer touched by any other goroutine.
	if err := node.Close(); err != nil {
		return err
	}
	dump := &span.Dump{Logs: rec.Logs}
	for _, f := range frames {
		dump.Frames = append(dump.Frames, f...)
	}
	for flow := range receivers {
		for ord, r := range receivers[flow] {
			h := sha256.New()
			for _, p := range r.Delivered() {
				h.Write(p)
			}
			d := span.Digest{Flow: byte(flow), Ordinal: ord, Payloads: len(r.Delivered())}
			h.Sum(d.Sum[:0])
			dump.Digests = append(dump.Digests, d)
		}
	}
	return dump.Write(*out)
}
