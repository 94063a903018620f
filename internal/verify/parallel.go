package verify

// The parallel explicit-state search (DESIGN.md §12).
//
// Explore runs a level-synchronised BFS: every worker drains the current
// depth's frontier (its own first, then stealing from the others via a
// shared atomic cursor per frontier), appending discovered states to a
// private next-level list; a barrier separates levels. Level synchrony is
// what makes results deterministic: a state is always first inserted at
// its minimal BFS depth, so violation depths and counter-example trace
// lengths are identical for any worker count — only which equal-length
// parent chain gets recorded can vary.
//
// Workers never share mutable state except the visited table (internally
// striped) and the frontier cursors. A worker owns one set of machines
// compiled once per spec and rehydrates them per expansion from the
// canonical state encoding — no machine clones, no string keys. Moves run
// on the frame path: machines step with StepEv, and queues hold interned
// messages (bytestate.go), so a successor is encoded by copying bytes.

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
)

// levelFrontier is one worker's slice of the current BFS level with a
// shared claim cursor: own-pop and steal are the same atomic increment.
type levelFrontier struct {
	refs []ref
	head atomic.Int64
}

type pexplorer struct {
	c         *compiled
	opts      Options
	tbl       *table
	workers   []*pworker
	frontiers []levelFrontier
}

// pviol is a violation before trace reconstruction: anchored at a table
// ref instead of carrying the trace.
type pviol struct {
	kind, name, msg string
	state           ref
	depth           int32
	extra           Move
	hasExtra        bool
}

type pworker struct {
	id int
	e  *pexplorer
	*byteState

	// q is the state a move works on: baseQ's headers, with each queue
	// the move edits replaced by a copy in qScratch (copy-on-write).
	q        [][]*imsg
	qScratch [][]*imsg
	qDirty   []bool // routes the current move edited
	dirtyM   int    // machine the current move stepped, or -1
	outEnc   []byte // emitted-message encoding scratch
	snap     Snapshot

	moves   []Move
	encBuf  []byte // current node's encoding
	succBuf []byte // successor encoding scratch
	next    []ref  // next-level frontier (worker-private)

	transitions uint64
	dupHits     uint64
	overruns    []uint64
	viols       []pviol
	err         error

	curRef   ref
	curDepth int32
	curMove  Move
}

func newPWorker(e *pexplorer, id int) *pworker {
	nr := len(e.c.sys.Routes)
	w := &pworker{
		id:        id,
		e:         e,
		byteState: newByteState(e.c),
		q:         make([][]*imsg, nr),
		qScratch:  make([][]*imsg, nr),
		qDirty:    make([]bool, nr),
		dirtyM:    -1,
		overruns:  make([]uint64, nr),
	}
	for ri, r := range e.c.sys.Routes {
		w.qScratch[ri] = make([]*imsg, 0, r.Capacity+1)
	}
	w.snap = Snapshot{
		States: make([]string, len(w.ms)),
		Vars:   make([]map[string]expr.Value, len(w.ms)),
		Queues: make([][]expr.Value, nr),
	}
	for i := range w.snap.Vars {
		w.snap.Vars[i] = make(map[string]expr.Value)
	}
	return w
}

// Explore runs the parallel breadth-first search over the system's
// product state space. Results — states, transitions, violations, trace
// lengths, overrun counts — are deterministic and identical for every
// Workers value; see Options for the truncation and stop-early caveats.
func Explore(sys *System, opts Options) (*Result, error) {
	c, err := compileSystem(sys)
	if err != nil {
		return nil, err
	}
	if opts.MaxStates <= 0 {
		opts.MaxStates = 1 << 20
	}
	nw := opts.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if nw > 64 {
		nw = 64
	}
	start := time.Now()

	e := &pexplorer{
		c: c, opts: opts,
		tbl:       newTable(opts.MaxStates),
		frontiers: make([]levelFrontier, nw),
	}
	e.workers = make([]*pworker, nw)
	for i := range e.workers {
		e.workers[i] = newPWorker(e, i)
	}

	w0 := e.workers[0]
	rootEnc := w0.appendState(nil, w0.baseQ)
	rootRef, _, full := e.tbl.insert(fingerprint(rootEnc), rootEnc, refNil, -1, 0)
	if !full {
		copy(w0.q, w0.baseQ)
		w0.checkInvariants(rootRef, 0)
		e.frontiers[0].refs = []ref{rootRef}
	}

	depth := int32(0)
	maxDepth := 0
	frontierPeak := 0
	for {
		total := 0
		for i := range e.frontiers {
			e.frontiers[i].head.Store(0)
			total += len(e.frontiers[i].refs)
		}
		if total == 0 {
			break
		}
		if total > frontierPeak {
			frontierPeak = total
		}
		maxDepth = int(depth)

		var wg sync.WaitGroup
		for _, w := range e.workers {
			wg.Add(1)
			go func(w *pworker) {
				defer wg.Done()
				w.drain(depth)
			}(w)
		}
		wg.Wait()
		for _, w := range e.workers {
			if w.err != nil {
				return nil, w.err
			}
		}

		for i, w := range e.workers {
			e.frontiers[i].refs = w.next
			w.next = nil
		}
		depth++
		if opts.StopAtFirstViolation && e.anyViols() {
			break
		}
	}

	res := &Result{
		States:    int(e.tbl.count.Load()),
		Truncated: e.tbl.truncated.Load(),
		Overruns:  make([]uint64, len(sys.Routes)),
	}
	for _, w := range e.workers {
		res.Transitions += int(w.transitions)
		res.Stats.DupHits += int(w.dupHits)
		for ri, c := range w.overruns {
			res.Overruns[ri] += c
		}
	}
	var pviols []pviol
	for _, w := range e.workers {
		pviols = append(pviols, w.viols...)
	}
	if len(pviols) > 0 {
		vs := make([]Violation, len(pviols))
		anchors := make([][]byte, len(pviols))
		for i, pv := range pviols {
			moves := e.movesTo(pv.state)
			if pv.hasExtra {
				moves = append(moves, pv.extra)
			}
			vs[i] = Violation{
				Kind: pv.kind, Name: pv.name, Msg: pv.msg,
				Moves: moves, Trace: describeMoves(moves), Depth: int(pv.depth),
			}
			anchors[i], _ = e.tbl.node(pv.state, nil)
		}
		sortViolations(vs, anchors)
		res.Violations = vs
	}
	res.Stats.Workers = nw
	res.Stats.Depth = maxDepth
	res.Stats.FrontierPeak = frontierPeak
	res.Stats.ArenaBytes = e.tbl.arenaBytes()
	res.Stats.Elapsed = time.Since(start)
	if secs := res.Stats.Elapsed.Seconds(); secs > 0 {
		res.Stats.StatesPerSec = float64(res.States) / secs
	}
	return res, nil
}

func (e *pexplorer) anyViols() bool {
	for _, w := range e.workers {
		if len(w.viols) > 0 {
			return true
		}
	}
	return false
}

// drain claims states from the level's frontiers — own list first, then
// the other workers' — until every frontier is exhausted.
func (w *pworker) drain(depth int32) {
	n := len(w.e.frontiers)
	for w.err == nil {
		claimed := false
		for i := 0; i < n; i++ {
			f := &w.e.frontiers[(w.id+i)%n]
			idx := f.head.Add(1) - 1
			if idx < int64(len(f.refs)) {
				w.expand(f.refs[idx], depth)
				claimed = true
				break
			}
		}
		if !claimed {
			return
		}
	}
}

// expand applies every enabled move of one state, inserting unseen
// successors into the table and the worker's next-level frontier.
func (w *pworker) expand(r ref, depth int32) {
	w.encBuf, _ = w.e.tbl.node(r, w.encBuf)
	if err := w.decode(w.encBuf); err != nil {
		w.err = err
		return
	}
	w.moves = enabledMoves(w.e.c, w.ms, w.baseQ, w.moves)
	w.curRef, w.curDepth = r, depth
	copy(w.q, w.baseQ)
	productive := false
	for mi := range w.moves {
		mv := w.moves[mi]
		if err := w.undo(); err != nil {
			w.err = err
			return
		}
		w.curMove = mv
		ar, err := w.apply(mv)
		if err != nil {
			w.viols = append(w.viols, pviol{
				kind: ViolationStep, name: mv.String(), msg: err.Error(),
				state: r, depth: depth, extra: mv, hasExtra: true,
			})
			continue
		}
		w.transitions++
		if ar.envNoop {
			continue
		}
		w.succBuf = w.appendSuccessor(w.succBuf[:0])
		if bytes.Equal(w.succBuf, w.encBuf) {
			continue // fired but changed nothing
		}
		productive = true
		nr, isNew, full := w.e.tbl.insert(fingerprint(w.succBuf), w.succBuf, r, int32(mi), depth+1)
		if full {
			continue // table already marked truncated
		}
		if !isNew {
			w.dupHits++
			continue
		}
		w.next = append(w.next, nr)
		// The machines and w.q hold exactly the successor state here.
		w.checkInvariants(nr, depth+1)
	}
	if w.e.opts.CheckDeadlock && !productive {
		if err := w.undo(); err != nil {
			w.err = err
			return
		}
		if !allFinal(w.ms) {
			w.viols = append(w.viols, pviol{
				kind: ViolationDeadlock, name: "deadlock",
				msg:   "no state-changing moves and not all machines final",
				state: r, depth: depth,
			})
		}
	}
}

// undo returns the machines and w.q to the decoded state after a move:
// it restores the one machine the move stepped and the queues it edited.
func (w *pworker) undo() error {
	if d := w.dirtyM; d >= 0 {
		if _, err := w.ms[d].RestoreState(w.encBuf[w.mOff[d]:]); err != nil {
			return fmt.Errorf("verify: corrupt state encoding: machine %d: %w", d, err)
		}
		w.dirtyM = -1
	}
	for ri, dirty := range w.qDirty {
		if dirty {
			w.q[ri] = w.baseQ[ri]
			w.qDirty[ri] = false
		}
	}
	return nil
}

// apply executes one move on the frame path, with applyMove's semantics
// and results: StepEv with the precomputed event ids and argument
// tables, and emitted messages interned straight from their frames.
func (w *pworker) apply(mv Move) (applyResult, error) {
	c := w.e.c
	switch mv.Kind {
	case MoveEnv:
		b := &c.envBind[mv.Env][mv.ArgIdx]
		if b.err != nil {
			return applyResult{}, b.err
		}
		m := c.sys.Env[mv.Env].Machine
		res, err := w.ms[m].StepEv(c.envEv[mv.Env], b.args...)
		if err != nil {
			return applyResult{}, err
		}
		if res.Ignored || res.Rejected {
			return applyResult{envNoop: true}, nil
		}
		w.dirtyM = m
		w.route(m, res.Outputs)
		return applyResult{fired: true}, nil
	case MoveDeliver:
		msg := w.q[mv.Route][mv.QIdx]
		w.removeAt(mv.Route, mv.QIdx)
		if err := c.routeErr[mv.Route]; err != nil {
			return applyResult{}, err
		}
		to := c.sys.Routes[mv.Route].To
		res, err := w.ms[to].StepEv(c.routeEv[mv.Route], msg.val)
		if err != nil {
			return applyResult{}, err
		}
		if res.Fired == nil {
			// The message is consumed even when rejected or ignored: the
			// queue changed but the machine did not.
			return applyResult{}, nil
		}
		w.dirtyM = to
		w.route(to, res.Outputs)
		return applyResult{fired: true}, nil
	case MoveDrop:
		w.removeAt(mv.Route, mv.QIdx)
		return applyResult{}, nil
	default:
		return applyResult{}, fmt.Errorf("verify: unknown move kind %d", mv.Kind)
	}
}

// route places emitted messages onto their routes with routeOutputs'
// overrun rule: a full FIFO route drops its head, a full reordering
// route its canonically smallest message.
func (w *pworker) route(from int, outs []fsm.FrameOutput) {
	for _, out := range outs {
		routes := w.e.c.outRoutes[from][out.Shape]
		if len(routes) == 0 {
			continue
		}
		v := expr.FrameMsg(out.Shape, out.Frame)
		w.outEnc = v.AppendCanon(w.outEnc[:0])
		for _, ri := range routes {
			msg := w.intern(ri, w.outEnc, v)
			r := &w.e.c.sys.Routes[ri]
			q := w.edit(ri)
			if len(q) >= r.Capacity {
				victim := 0
				if r.Reorder && len(q) > 1 {
					victim = minEncIndex(q)
				}
				w.overrun(ri, q[victim].val)
				q = append(q[:victim], q[victim+1:]...)
			}
			w.q[ri] = append(q, msg)
		}
	}
}

// edit returns route ri's working queue, first copying it into the
// route's scratch so the decoded queue is never written.
func (w *pworker) edit(ri int) []*imsg {
	if !w.qDirty[ri] {
		w.qScratch[ri] = append(w.qScratch[ri][:0], w.q[ri]...)
		w.q[ri] = w.qScratch[ri]
		w.qDirty[ri] = true
	}
	return w.q[ri]
}

func (w *pworker) removeAt(ri, i int) {
	q := w.edit(ri)
	w.q[ri] = append(q[:i], q[i+1:]...)
}

// overrun counts a channel-overrun drop and applies the overrun
// invariant, anchored at the state and move being applied.
func (w *pworker) overrun(route int, dropped expr.Value) {
	w.overruns[route]++
	if inv := w.e.opts.OverrunInvariant; inv != nil {
		if err := inv(route, dropped); err != nil {
			w.viols = append(w.viols, pviol{
				kind: ViolationOverrun, name: "channel-overrun", msg: err.Error(),
				state: w.curRef, depth: w.curDepth, extra: w.curMove, hasExtra: true,
			})
		}
	}
}

// appendSuccessor appends the encoding of the state the current move
// produced. Sections the move left alone are copied from the decoded
// state's bytes; only the stepped machine and edited queues are encoded.
func (w *pworker) appendSuccessor(dst []byte) []byte {
	qStart := w.mOff[len(w.ms)]
	if d := w.dirtyM; d >= 0 {
		dst = append(dst, w.encBuf[:w.mOff[d]]...)
		dst = w.ms[d].AppendState(dst)
		dst = append(dst, w.encBuf[w.mOff[d+1]:qStart]...)
	} else {
		dst = append(dst, w.encBuf[:qStart]...)
	}
	for ri, q := range w.q {
		if w.qDirty[ri] {
			dst = w.appendQueue(dst, ri, q)
		} else {
			dst = append(dst, w.encBuf[w.qOff[ri]:w.qOff[ri+1]]...)
		}
	}
	return dst
}

// checkInvariants evaluates the invariants on the worker's current
// machines and w.q, refilling one reused Snapshot in place.
func (w *pworker) checkInvariants(r ref, depth int32) {
	if len(w.e.opts.Invariants) == 0 {
		return
	}
	snap := &w.snap
	for i, m := range w.ms {
		snap.States[i] = m.State()
		m.CopyVars(snap.Vars[i])
	}
	for ri, q := range w.q {
		vals := snap.Queues[ri][:0]
		for _, msg := range q {
			vals = append(vals, msg.val)
		}
		snap.Queues[ri] = vals
	}
	for _, inv := range w.e.opts.Invariants {
		if err := inv.Fn(snap); err != nil {
			w.viols = append(w.viols, pviol{
				kind: ViolationInvariant, name: inv.Name, msg: err.Error(),
				state: r, depth: depth,
			})
		}
	}
}

// movesTo reconstructs the move sequence from the initial state to r by
// walking parent refs, re-deriving each parent's move list and selecting
// the recorded move index. Runs single-threaded after the search, on
// worker 0's machines.
func (e *pexplorer) movesTo(r ref) []Move {
	var chain []ref
	for cur := r; cur != refNil; {
		chain = append(chain, cur)
		cur = e.tbl.metaOf(cur).parent
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	w := e.workers[0]
	moves := make([]Move, 0, len(chain)-1)
	for i := 0; i+1 < len(chain); i++ {
		w.encBuf, _ = e.tbl.node(chain[i], w.encBuf)
		if err := w.decode(w.encBuf); err != nil {
			return moves // unreachable: the table only holds valid encodings
		}
		w.moves = enabledMoves(e.c, w.ms, w.baseQ, w.moves)
		mid := e.tbl.metaOf(chain[i+1]).moveID
		if int(mid) >= len(w.moves) {
			return moves // unreachable: moveID indexes the parent's move list
		}
		moves = append(moves, w.moves[mid])
	}
	return moves
}
