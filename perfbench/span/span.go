// Package span records the benchmark's traced spans. A span is a name,
// a start and an end on the monotonic clock, the span that caused it
// and a flow or session id. Spans are kept in memory, one Log per
// event loop, and written out once when the traced process exits.
//
// The wrappers here sit on the public seams the engines already use
// (netsim.Port, netsim.Runtime and the handlers installed through
// them), so tracing needs no change inside the program.
package span

import (
	"encoding/gob"
	"fmt"
	"os"
	"time"

	"protodsl/internal/netsim"
	"protodsl/internal/obs"
)

// Name identifies what a span wraps. The prefix before the dot is the
// layer the time is charged to.
type Name uint8

// The span names.
const (
	RtnetSend        Name = iota // netsim.Port.Send: stage one frame on the shard
	RtnetAccept                  // plain Serve accept callback
	SessionAccept                // ServeSession accept callback
	SessionConnect               // the session.Connect call itself
	SessionClient                // the session client's frame handler
	SessionTimer                 // a session client timer callback
	SessionHandshake             // async: session.Connect until OnEstablished
	ArqRecv                      // receiver OnDatagram, one frame
	ArqAck                       // client sender's frame handler, one ack
	ArqTimer                     // an ARQ sender timer callback
	NumNames
)

var names = [NumNames]string{
	RtnetSend:        "rtnet.send",
	RtnetAccept:      "rtnet.accept",
	SessionAccept:    "session.accept",
	SessionConnect:   "session.connect",
	SessionClient:    "session.client",
	SessionTimer:     "session.timer",
	SessionHandshake: "session.handshake",
	ArqRecv:          "arq.recv",
	ArqAck:           "arq.ack",
	ArqTimer:         "arq.timer",
}

func (n Name) String() string {
	if n >= NumNames {
		return "unknown"
	}
	return names[n]
}

// Async reports whether spans of this name are intervals between two
// events rather than a call on the loop's stack; they take no part in
// self-time accounting.
func (n Name) Async() bool { return n == SessionHandshake }

// Span is one recorded interval. Start and End are nanoseconds since
// the process's trace epoch; Parent indexes the same Log (-1 = root).
type Span struct {
	Start, End int64
	Parent     int32
	ID         uint32
	Name       Name
}

// Log is one event loop's span buffer. It is single-goroutine, like
// the loop that owns it.
type Log struct {
	epoch   time.Time
	Spans   []Span
	cur     int32
	Arms    uint64 // timers armed through a wrapped Runtime
	Cancels uint64 // Cancel calls on those timers
}

func (l *Log) now() int64 { return int64(time.Since(l.epoch)) }

// Begin opens a span as a child of the currently open one.
func (l *Log) Begin(n Name, id uint32) int32 {
	i := int32(len(l.Spans))
	l.Spans = append(l.Spans, Span{Name: n, ID: id, Parent: l.cur, Start: l.now()})
	l.cur = i
	return i
}

// End closes the span Begin returned.
func (l *Log) End(i int32) {
	l.Spans[i].End = l.now()
	l.cur = l.Spans[i].Parent
}

// Mark returns the current trace time, for async spans.
func (l *Log) Mark() int64 { return l.now() }

// Interval records an async span from start (a Mark) to now.
func (l *Log) Interval(n Name, id uint32, start int64) {
	l.Spans = append(l.Spans, Span{Name: n, ID: id, Parent: -1, Start: start, End: l.now()})
}

// Handler wraps a frame handler in a span.
func (l *Log) Handler(n Name, id uint32, fn func(netsim.Addr, []byte)) func(netsim.Addr, []byte) {
	if fn == nil {
		return nil
	}
	return func(from netsim.Addr, data []byte) {
		i := l.Begin(n, id)
		fn(from, data)
		l.End(i)
	}
}

// Recorder holds one Log per shard of an rtnet node. rtnet runs flow id
// f on shard f mod Shards, so ForFlow finds the log of the loop that
// will run that flow's callbacks.
type Recorder struct {
	Logs []*Log
}

// NewRecorder makes one log per shard, all on one epoch.
func NewRecorder(shards int) *Recorder {
	epoch := time.Now()
	r := &Recorder{}
	for i := 0; i < shards; i++ {
		r.Logs = append(r.Logs, &Log{epoch: epoch, cur: -1})
	}
	return r
}

// ForFlow returns the log of the shard that runs flow id.
func (r *Recorder) ForFlow(id byte) *Log { return r.Logs[int(id)%len(r.Logs)] }

// Port wraps a netsim.Port: every Send is a RtnetSend span and every
// handler installed through SetHandler runs inside a span named Recv.
type Port struct {
	netsim.Port
	Log  *Log
	ID   uint32
	Recv Name
}

// Send stages one frame inside a RtnetSend span.
func (p *Port) Send(to netsim.Addr, data []byte) error {
	i := p.Log.Begin(RtnetSend, p.ID)
	err := p.Port.Send(to, data)
	p.Log.End(i)
	return err
}

// SetHandler installs fn wrapped in a p.Recv span.
func (p *Port) SetHandler(fn func(netsim.Addr, []byte)) {
	p.Port.SetHandler(p.Log.Handler(p.Recv, p.ID, fn))
}

// ObsShard keeps the wrapped port's stats block visible to obs.Of.
func (p *Port) ObsShard() *obs.Shard { return obs.Of(p.Port) }

// Handlers wraps a netsim.Port like Port but leaves Send alone: for a
// port layered over one that is already a Port, so a frame is not
// counted as two sends.
type Handlers struct {
	netsim.Port
	Log  *Log
	ID   uint32
	Recv Name
}

// SetHandler installs fn wrapped in a h.Recv span.
func (h *Handlers) SetHandler(fn func(netsim.Addr, []byte)) {
	h.Port.SetHandler(h.Log.Handler(h.Recv, h.ID, fn))
}

// ObsShard keeps the wrapped port's stats block visible to obs.Of.
func (h *Handlers) ObsShard() *obs.Shard { return obs.Of(h.Port) }

// Runtime wraps a netsim.Runtime: it counts timers armed and cancelled
// and runs each timer callback inside a span named Timer.
type Runtime struct {
	netsim.Runtime
	Log   *Log
	ID    uint32
	Timer Name
}

// After arms a counted timer whose callback runs in a span.
func (r *Runtime) After(d time.Duration, fn func()) netsim.Timer {
	r.Log.Arms++
	log, id, n := r.Log, r.ID, r.Timer
	t := r.Runtime.After(d, func() {
		i := log.Begin(n, id)
		fn()
		log.End(i)
	})
	return &timer{Timer: t, log: log}
}

// ObsShard keeps the wrapped runtime's stats block visible to obs.Of:
// engines find their counters through the runtime they are handed.
func (r *Runtime) ObsShard() *obs.Shard { return obs.Of(r.Runtime) }

type timer struct {
	netsim.Timer
	log *Log
}

func (t *timer) Cancel() {
	t.log.Cancels++
	t.Timer.Cancel()
}

// Digest is the SHA-256 of everything one receiver delivered, in order.
type Digest struct {
	Flow     byte
	Ordinal  int // n-th receiver spawned on this flow, from 0
	Payloads int
	Sum      [32]byte
}

// Dump is what a traced process writes at exit.
type Dump struct {
	Logs    []*Log
	Frames  [][]byte // a sample of received data frames, for codec replay
	Digests []Digest
}

// Write stores d at path.
func (d *Dump) Write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(d); err != nil {
		f.Close()
		return fmt.Errorf("span: writing %s: %w", path, err)
	}
	return f.Close()
}

// Read loads a Dump written by Write.
func Read(path string) (*Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var d Dump
	if err := gob.NewDecoder(f).Decode(&d); err != nil {
		return nil, fmt.Errorf("span: reading %s: %w", path, err)
	}
	return &d, nil
}

// SelfTimes sums, per name, each synchronous span's duration minus the
// part its child spans cover, and counts the spans.
func SelfTimes(logs []*Log) (self [NumNames]time.Duration, count [NumNames]int) {
	for _, l := range logs {
		child := make([]int64, len(l.Spans))
		for _, s := range l.Spans {
			if s.Parent >= 0 && !s.Name.Async() {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range l.Spans {
			if s.Name.Async() {
				continue
			}
			self[s.Name] += time.Duration(s.End - s.Start - child[i])
			count[s.Name]++
		}
	}
	return self, count
}
