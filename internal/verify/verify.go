// Package verify is an explicit-state model checker for systems of fsm
// machines connected by bounded channels.
//
// It exists as the paper's comparison baseline (§3.3): "The state machine
// representing a protocol may have a large number of states and
// transitions. Verifying the protocol requires exploring the entire state
// space." This checker does exactly that — breadth-first exploration of
// the product state space with invariant checking, deadlock detection and
// counter-example traces — so experiment E4 can measure how its cost
// scales with sequence-number space and channel capacity, against the
// near-constant cost of the spec-level static checks (fsm.Check) the DSL
// approach uses instead.
//
// Two engines share one move semantics (DESIGN.md §12):
//
//   - Explore is the production engine: a level-synchronised parallel
//     search over canonical byte-encoded states, deduplicated in a
//     sharded visited table. Its results are deterministic and identical
//     for any worker count.
//   - ExploreSequential is the reference engine: the original cloned-
//     machine BFS, kept as the independent oracle the differential tests
//     pin Explore against.
//
// Each call owns its worklist and visited set, so concurrent checks —
// even of the same system — are safe.
package verify

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
)

// Route connects one machine's output messages to another machine's
// input event through a bounded (optionally lossy) channel.
type Route struct {
	// From is the index of the producing machine; Message selects which
	// of its outputs travel this route.
	From    int
	Message string
	// To is the consuming machine; the message is delivered as Event with
	// the message value bound to parameter Param.
	To    int
	Event string
	Param string
	// Capacity bounds the in-flight messages; sends into a full channel
	// drop the oldest (modelling overrun). Overruns are counted in
	// Result.Overruns and can be turned into violations with
	// Options.OverrunInvariant.
	Capacity int
	// Lossy adds a nondeterministic drop move for queued messages.
	Lossy bool
	// Reorder models a reordering network: any queued message — not just
	// the head — may be delivered (and, when Lossy, dropped) next. Off,
	// the channel is strict FIFO. Reordering channels are identified by
	// their multiset of in-flight messages, so permutations of the same
	// queue are one state.
	Reorder bool
}

// EnvEvent declares an environment stimulus: an event the surrounding
// world may raise at any time (timeouts, application sends), with a
// finite set of argument bindings to keep the state space enumerable.
type EnvEvent struct {
	Machine int
	Event   string
	// Args lists alternative argument bindings; nil or empty means the
	// event is raised once with no arguments.
	Args []map[string]expr.Value
}

// System is a closed composition of machines, routes and stimuli.
type System struct {
	Specs  []*fsm.Spec
	Routes []Route
	Env    []EnvEvent
}

// Snapshot is the observable global state handed to invariants.
type Snapshot struct {
	// States holds each machine's current state name.
	States []string
	// Vars holds each machine's variable values.
	Vars []map[string]expr.Value
	// Queues holds the message values in flight on each route.
	Queues [][]expr.Value
}

// Invariant is a named safety property over global states.
type Invariant struct {
	Name string
	Fn   func(*Snapshot) error
}

// Violation kinds.
const (
	ViolationInvariant = "invariant"
	ViolationDeadlock  = "deadlock"
	ViolationStep      = "step-error"
	ViolationOverrun   = "overrun"
)

// MoveKind classifies the nondeterministic choices of a state.
type MoveKind int

// Move kinds.
const (
	// MoveEnv raises an environment event.
	MoveEnv MoveKind = iota + 1
	// MoveDeliver delivers a queued message to its route's consumer.
	MoveDeliver
	// MoveDrop loses a queued message (lossy routes).
	MoveDrop
)

// Move is one nondeterministic choice: an environment event, a channel
// delivery, or a lossy drop. Moves are the structured representation of
// counter-example traces — Replay re-executes a move sequence.
type Move struct {
	Kind MoveKind
	// Env indexes System.Env (MoveEnv only); Machine, Event and ArgIdx
	// identify the stimulus for display.
	Env     int
	Machine int
	Event   string
	ArgIdx  int
	// Route indexes System.Routes (MoveDeliver, MoveDrop); QIdx selects
	// the queued message (always 0 for FIFO routes).
	Route int
	QIdx  int
}

// String renders the move in the trace syntax.
func (m Move) String() string {
	switch m.Kind {
	case MoveEnv:
		return fmt.Sprintf("env:%d.%s[%d]", m.Machine, m.Event, m.ArgIdx)
	case MoveDeliver:
		if m.QIdx > 0 {
			return fmt.Sprintf("deliver:route%d#%d", m.Route, m.QIdx)
		}
		return fmt.Sprintf("deliver:route%d", m.Route)
	case MoveDrop:
		if m.QIdx > 0 {
			return fmt.Sprintf("drop:route%d#%d", m.Route, m.QIdx)
		}
		return fmt.Sprintf("drop:route%d", m.Route)
	default:
		return "?"
	}
}

// Violation reports a property failure with a counter-example trace.
type Violation struct {
	Kind string
	Name string
	Msg  string
	// Trace renders Moves for display.
	Trace []string
	// Moves is the replayable counter-example: the shortest move sequence
	// from the initial state to the violating state (for step-error and
	// overrun violations the final move is the one that misbehaved).
	Moves []Move
	// Depth is the BFS depth of the state the violation anchors at; both
	// engines find each violation at its minimal depth.
	Depth int
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("%s %s: %s (trace: %s)", v.Kind, v.Name, v.Msg, strings.Join(v.Trace, " ; "))
}

// Options bounds and configures exploration.
type Options struct {
	// MaxStates bounds distinct states explored (0 = 1<<20). When the
	// bound is hit the result is Truncated and States == MaxStates; which
	// states beyond the bound went unexplored is unspecified.
	MaxStates int
	// Invariants are checked in every reached state.
	Invariants []Invariant
	// CheckDeadlock reports states with no state-changing moves where not
	// every machine is final.
	CheckDeadlock bool
	// StopAtFirstViolation ends exploration at the first finding. Explore
	// stops at the end of the BFS level that found it (keeping results
	// deterministic); ExploreSequential stops immediately.
	StopAtFirstViolation bool
	// Workers sets Explore's parallelism (0 = GOMAXPROCS). Results are
	// identical for every value. ExploreSequential ignores it.
	Workers int
	// OverrunInvariant, when set, is evaluated at every channel overrun
	// with the route index and the dropped message; a non-nil error
	// becomes a ViolationOverrun with the offending trace.
	OverrunInvariant func(route int, dropped expr.Value) error
}

// Stats reports search metrics (populated by both engines; the table and
// frontier figures are specific to Explore).
type Stats struct {
	// Workers actually used.
	Workers int
	// Depth is the deepest BFS level reached.
	Depth int
	// FrontierPeak is the high-water mark of a BFS level's state count.
	FrontierPeak int
	// DupHits counts moves that landed on an already-visited state.
	DupHits int
	// Elapsed is the wall-clock exploration time.
	Elapsed time.Duration
	// StatesPerSec is States / Elapsed.
	StatesPerSec float64
	// ArenaBytes is the total canonical-encoding bytes pooled in the
	// visited table (Explore only).
	ArenaBytes int
}

// Result summarises an exploration.
type Result struct {
	// States is the number of distinct global states reached.
	States int
	// Transitions is the number of moves executed.
	Transitions int
	// Violations found (empty means the explored space satisfies all
	// properties).
	Violations []Violation
	// Truncated is true when MaxStates stopped exploration early — the
	// paper's point: "the model may be a simplified (and so unrealistic)
	// representation".
	Truncated bool
	// Overruns counts channel-overrun drops per route. Every visited
	// state's moves are applied exactly once, so the counts are
	// deterministic for untruncated runs.
	Overruns []uint64
	// Stats are the search metrics.
	Stats Stats
}

// compileSystem validates the system and compiles every spec. A spec
// that fails fsm.Check is refused: the model checker verifies *checked*
// specs against system-level properties the static checker cannot see.
func compileSystem(sys *System) ([]*fsm.Program, error) {
	if len(sys.Specs) == 0 {
		return nil, errors.New("verify: system has no machines")
	}
	progs := make([]*fsm.Program, len(sys.Specs))
	for i, spec := range sys.Specs {
		report := fsm.Check(spec)
		if !report.OK() {
			return nil, &fsm.CheckSpecError{Report: report}
		}
		prog, err := fsm.CompileSpecFromChecked(spec, report)
		if err != nil {
			return nil, err
		}
		progs[i] = prog
	}
	for _, r := range sys.Routes {
		if r.From < 0 || r.From >= len(sys.Specs) || r.To < 0 || r.To >= len(sys.Specs) {
			return nil, fmt.Errorf("verify: route references machine out of range: %+v", r)
		}
		if r.Capacity < 1 {
			return nil, fmt.Errorf("verify: route %s needs capacity >= 1", r.Message)
		}
	}
	for _, env := range sys.Env {
		if env.Machine < 0 || env.Machine >= len(sys.Specs) {
			return nil, fmt.Errorf("verify: env event %s references machine %d out of range", env.Event, env.Machine)
		}
	}
	return progs, nil
}

func newMachines(progs []*fsm.Program) []*fsm.Machine {
	ms := make([]*fsm.Machine, len(progs))
	for i, p := range progs {
		ms[i] = p.NewMachine()
	}
	return ms
}

// deliverArgsFor prebuilds one single-key argument map per route, reused
// across deliveries (Step copies the bound value out before returning).
func deliverArgsFor(sys *System) []map[string]expr.Value {
	out := make([]map[string]expr.Value, len(sys.Routes))
	for i, r := range sys.Routes {
		out[i] = map[string]expr.Value{r.Param: {}}
	}
	return out
}

// enabledMoves appends the nondeterministic choices of the given state
// to buf. The enumeration order is part of the checker's semantics: a
// state's move list is identical in both engines and across runs, and
// parent links store indexes into it.
func enabledMoves(sys *System, ms []*fsm.Machine, queues [][]expr.Value, buf []Move) []Move {
	moves := buf[:0]
	for ei := range sys.Env {
		env := &sys.Env[ei]
		m := ms[env.Machine]
		if len(m.Spec().TransitionsFrom(m.State(), env.Event)) == 0 &&
			!m.Spec().Ignored(m.State(), env.Event) {
			continue // event not executable here
		}
		n := len(env.Args)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			moves = append(moves, Move{
				Kind: MoveEnv, Env: ei, Machine: env.Machine, Event: env.Event, ArgIdx: i,
			})
		}
	}
	for ri := range sys.Routes {
		r := &sys.Routes[ri]
		q := queues[ri]
		if len(q) == 0 {
			continue
		}
		slots := 1
		if r.Reorder {
			slots = len(q)
		}
		dst := ms[r.To]
		if len(dst.Spec().TransitionsFrom(dst.State(), r.Event)) > 0 ||
			dst.Spec().Ignored(dst.State(), r.Event) {
			for qi := 0; qi < slots; qi++ {
				moves = append(moves, Move{Kind: MoveDeliver, Route: ri, QIdx: qi})
			}
		}
		if r.Lossy {
			for qi := 0; qi < slots; qi++ {
				moves = append(moves, Move{Kind: MoveDrop, Route: ri, QIdx: qi})
			}
		}
	}
	return moves
}

// applyResult reports what a move did.
type applyResult struct {
	// fired is true when a machine transition fired (machine state or
	// vars may have changed).
	fired bool
	// envNoop is true for an ignored or rejected environment event — a
	// semantic no-op that cannot have changed the global state.
	envNoop bool
}

// applyMove executes one move against ms and queues in place. Machines
// are mutated directly; queue slices are replaced copy-on-write (the
// previous backing arrays are never written), so callers may share queue
// contents across shallow header copies. onOverrun, when non-nil, is
// invoked for every overrun drop caused by the move.
func applyMove(sys *System, ms []*fsm.Machine, queues [][]expr.Value, mv Move,
	deliverArgs []map[string]expr.Value, onOverrun func(route int, dropped expr.Value)) (applyResult, error) {
	switch mv.Kind {
	case MoveEnv:
		env := &sys.Env[mv.Env]
		var args map[string]expr.Value
		if len(env.Args) > 0 {
			args = env.Args[mv.ArgIdx]
		}
		res, err := ms[env.Machine].Step(env.Event, args)
		if err != nil {
			return applyResult{}, err
		}
		if res.Ignored || res.Rejected {
			return applyResult{envNoop: true}, nil
		}
		routeOutputs(sys, queues, env.Machine, res.Outputs, onOverrun)
		return applyResult{fired: true}, nil
	case MoveDeliver:
		r := &sys.Routes[mv.Route]
		q := queues[mv.Route]
		msg := q[mv.QIdx]
		queues[mv.Route] = removeAt(q, mv.QIdx)
		args := deliverArgs[mv.Route]
		args[r.Param] = msg
		res, err := ms[r.To].Step(r.Event, args)
		if err != nil {
			return applyResult{}, err
		}
		if res.Fired == nil {
			// The message is consumed even when rejected or ignored: the
			// queue changed but the machine did not.
			return applyResult{}, nil
		}
		routeOutputs(sys, queues, r.To, res.Outputs, onOverrun)
		return applyResult{fired: true}, nil
	case MoveDrop:
		queues[mv.Route] = removeAt(queues[mv.Route], mv.QIdx)
		return applyResult{}, nil
	default:
		return applyResult{}, fmt.Errorf("verify: unknown move kind %d", mv.Kind)
	}
}

// routeOutputs places emitted messages onto their routes, dropping one
// queued message on overrun. Queue slices are replaced, never mutated.
//
// FIFO routes drop the oldest (head) message. Reordering routes are
// multisets with no meaningful "oldest" — the concrete order of a decoded
// queue is an engine artifact — so the victim is the canonically smallest
// element, a choice both engines compute identically from the values
// alone. Without an order-independent rule the two engines would drop
// different messages and explore different graphs.
func routeOutputs(sys *System, queues [][]expr.Value, from int, outputs []fsm.OutputMsg,
	onOverrun func(route int, dropped expr.Value)) {
	for _, out := range outputs {
		for ri := range sys.Routes {
			r := &sys.Routes[ri]
			if r.From != from || r.Message != out.Message {
				continue
			}
			msg := expr.Msg(out.Message, out.Fields)
			q := queues[ri]
			if len(q) >= r.Capacity {
				victim := 0
				if r.Reorder && len(q) > 1 {
					victim = canonMinIndex(q)
				}
				if onOverrun != nil {
					onOverrun(ri, q[victim])
				}
				q = removeAt(q, victim)
				queues[ri] = append(q, msg)
				continue
			}
			queues[ri] = append(append(make([]expr.Value, 0, len(q)+1), q...), msg)
		}
	}
}

// canonMinIndex returns the index of the canonically smallest element.
func canonMinIndex(q []expr.Value) int {
	min := 0
	var minEnc, buf []byte
	minEnc = q[0].AppendCanon(minEnc)
	for i := 1; i < len(q); i++ {
		buf = q[i].AppendCanon(buf[:0])
		if string(buf) < string(minEnc) {
			min = i
			minEnc = append(minEnc[:0], buf...)
		}
	}
	return min
}

// removeAt returns q without element i, in a fresh slice.
func removeAt(q []expr.Value, i int) []expr.Value {
	out := make([]expr.Value, 0, len(q)-1)
	out = append(out, q[:i]...)
	return append(out, q[i+1:]...)
}

func snapshotFrom(ms []*fsm.Machine, queues [][]expr.Value) *Snapshot {
	snap := &Snapshot{
		States: make([]string, len(ms)),
		Vars:   make([]map[string]expr.Value, len(ms)),
		Queues: make([][]expr.Value, len(queues)),
	}
	for i, m := range ms {
		snap.States[i] = m.State()
		snap.Vars[i] = m.Vars()
	}
	for i, q := range queues {
		snap.Queues[i] = append([]expr.Value(nil), q...)
	}
	return snap
}

func allFinal(machines []*fsm.Machine) bool {
	for _, m := range machines {
		if !m.InFinal() {
			return false
		}
	}
	return true
}

func describeMoves(moves []Move) []string {
	out := make([]string, len(moves))
	for i, mv := range moves {
		out[i] = mv.String()
	}
	return out
}

// Replay re-executes a counter-example move sequence from the initial
// state, returning the final snapshot and the per-route overrun counts
// observed along the way. A move that fails to apply returns the error
// with the snapshot at the point of failure — which is exactly what a
// step-error violation's final move is expected to do.
func Replay(sys *System, moves []Move) (*Snapshot, []uint64, error) {
	progs, err := compileSystem(sys)
	if err != nil {
		return nil, nil, err
	}
	ms := newMachines(progs)
	queues := make([][]expr.Value, len(sys.Routes))
	overruns := make([]uint64, len(sys.Routes))
	deliverArgs := deliverArgsFor(sys)
	onOverrun := func(ri int, _ expr.Value) { overruns[ri]++ }
	for i, mv := range moves {
		if mv.Kind != MoveEnv && (mv.Route < 0 || mv.Route >= len(sys.Routes)) {
			return snapshotFrom(ms, queues), overruns, fmt.Errorf("verify: replay move %d (%s): route out of range", i, mv)
		}
		if mv.Kind == MoveEnv && (mv.Env < 0 || mv.Env >= len(sys.Env)) {
			return snapshotFrom(ms, queues), overruns, fmt.Errorf("verify: replay move %d (%s): env event out of range", i, mv)
		}
		if mv.Kind != MoveEnv && mv.QIdx >= len(queues[mv.Route]) {
			return snapshotFrom(ms, queues), overruns, fmt.Errorf("verify: replay move %d (%s): queue index out of range", i, mv)
		}
		if _, err := applyMove(sys, ms, queues, mv, deliverArgs, onOverrun); err != nil {
			return snapshotFrom(ms, queues), overruns, fmt.Errorf("verify: replay move %d (%s): %w", i, mv, err)
		}
	}
	return snapshotFrom(ms, queues), overruns, nil
}

// sortViolations orders violations deterministically: by depth, then by
// the anchor state's canonical encoding, then by kind, name, message and
// final move. Explore uses it so results are independent of worker
// scheduling.
func sortViolations(vs []Violation, anchors [][]byte) {
	idx := make([]int, len(vs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		va, vb := &vs[idx[a]], &vs[idx[b]]
		if va.Depth != vb.Depth {
			return va.Depth < vb.Depth
		}
		if c := strings.Compare(string(anchors[idx[a]]), string(anchors[idx[b]])); c != 0 {
			return c < 0
		}
		if va.Kind != vb.Kind {
			return va.Kind < vb.Kind
		}
		if va.Name != vb.Name {
			return va.Name < vb.Name
		}
		if va.Msg != vb.Msg {
			return va.Msg < vb.Msg
		}
		// Same anchor, kind, name and message: only step-error/overrun
		// violations can tie here, and they differ in their final move.
		return lastMove(va) < lastMove(vb)
	})
	sorted := make([]Violation, len(vs))
	sortedAnchors := make([][]byte, len(anchors))
	for i, j := range idx {
		sorted[i] = vs[j]
		sortedAnchors[i] = anchors[j]
	}
	copy(vs, sorted)
	copy(anchors, sortedAnchors)
}

func lastMove(v *Violation) string {
	if len(v.Moves) == 0 {
		return ""
	}
	return v.Moves[len(v.Moves)-1].String()
}
