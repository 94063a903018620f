package fsm

import (
	"errors"
	"testing"

	"protodsl/internal/expr"
	"protodsl/internal/wire"
)

// frameSpec is a small machine exercising every StepEv feature: a
// message-typed parameter (compiled against the message's shape), guards
// on its fields, assignments, outputs, ignores and rejection.
func frameSpec() *Spec {
	return &Spec{
		Name: "FrameSpec",
		Vars: []Var{{Name: "seq", Type: expr.TU8}},
		States: []State{
			{Name: "A", Init: true},
			{Name: "B", Final: true},
		},
		Events: []Event{
			{Name: "GO", Params: []Param{{Name: "m", Type: expr.TMsg("Msg")}}},
			{Name: "NOP"},
			{Name: "END"},
		},
		Transitions: []Transition{
			{Name: "match", From: "A", Event: "GO", To: "A",
				Guard:   expr.MustParse("m.id == seq"),
				Assigns: []Assign{{Var: "seq", Expr: expr.MustParse("seq + 1")}},
				Outputs: []Output{{Message: "Msg", Fields: map[string]expr.Expr{
					"id":   expr.MustParse("m.id"),
					"body": expr.MustParse("m.body"),
				}}}},
			{Name: "end", From: "A", Event: "END", To: "B"},
		},
		Ignores: []Ignore{{State: "A", Event: "NOP"}},
		Messages: map[string]*wire.Message{
			"Msg": {Name: "Msg", Fields: []wire.Field{
				{Name: "id", Kind: wire.FieldUint, Bits: 8},
				{Name: "body", Kind: wire.FieldBytes, LenKind: wire.LenRest},
			}},
		},
	}
}

// msgArg builds both representations of the same message value.
func msgArg(prog *Program, id uint64, body []byte) (mapBacked, frameBacked expr.Value) {
	mapBacked = expr.Msg("Msg", map[string]expr.Value{
		"id": expr.U8(id), "body": expr.Bytes(body),
	})
	shape := prog.MsgShape("Msg")
	f := expr.NewFrame(shape.NumFields())
	idSlot, _ := shape.Slot("id")
	bodySlot, _ := shape.Slot("body")
	f.Set(idSlot, expr.U8(id))
	f.Set(bodySlot, expr.Bytes(body))
	return mapBacked, expr.FrameMsg(shape, f)
}

// TestStepEvMatchesStep drives two machines of the same program through
// an identical event sequence — one via Step with map-backed messages,
// one via StepEv with slot-backed messages — and asserts identical
// dispatch outcomes, states, variables and output field values.
func TestStepEvMatchesStep(t *testing.T) {
	prog, err := CompileSpec(frameSpec())
	if err != nil {
		t.Fatal(err)
	}
	mMap := prog.NewMachine()
	mFrame := prog.NewMachine()
	goID, ok := prog.EventID("GO")
	if !ok {
		t.Fatal("no GO event")
	}
	nopID, _ := prog.EventID("NOP")

	for round := 0; round < 6; round++ {
		// Alternate matching and non-matching ids so both the fired and
		// rejected paths are compared.
		id := uint64(round / 2)
		body := []byte{byte(round), byte(round + 1)}
		mapMsg, frameMsg := msgArg(prog, id, body)

		sres, serr := mMap.Step("GO", map[string]expr.Value{"m": mapMsg})
		fres, ferr := mFrame.StepEv(goID, frameMsg)
		if (serr == nil) != (ferr == nil) {
			t.Fatalf("round %d: Step err %v, StepEv err %v", round, serr, ferr)
		}
		if serr != nil {
			continue
		}
		if sres.From != fres.From || sres.To != fres.To ||
			sres.Ignored != fres.Ignored || sres.Rejected != fres.Rejected ||
			(sres.Fired == nil) != (fres.Fired == nil) {
			t.Fatalf("round %d: dispatch mismatch: %+v vs %+v", round, sres, fres)
		}
		if len(sres.Outputs) != len(fres.Outputs) {
			t.Fatalf("round %d: %d vs %d outputs", round, len(sres.Outputs), len(fres.Outputs))
		}
		for i := range sres.Outputs {
			so, fo := sres.Outputs[i], fres.Outputs[i]
			if so.Message != fo.Message {
				t.Fatalf("round %d: output message %s vs %s", round, so.Message, fo.Message)
			}
			for name, sv := range so.Fields {
				slot, ok := fo.Shape.Slot(name)
				if !ok {
					t.Fatalf("round %d: output shape lacks %q", round, name)
				}
				if fv := fo.Frame.Get(slot); !fv.Equal(sv) {
					t.Fatalf("round %d: output field %s: %v vs %v", round, name, fv, sv)
				}
			}
		}
		if mMap.State() != mFrame.State() {
			t.Fatalf("round %d: state %s vs %s", round, mMap.State(), mFrame.State())
		}
		sv, _ := mMap.Var("seq")
		fv, _ := mFrame.Var("seq")
		if !sv.Equal(fv) {
			t.Fatalf("round %d: seq %v vs %v", round, sv, fv)
		}
	}

	// Ignored event parity.
	sres, err := mMap.Step("NOP", nil)
	if err != nil || !sres.Ignored {
		t.Fatalf("Step NOP: %+v, %v", sres, err)
	}
	fres, err := mFrame.StepEv(nopID)
	if err != nil || !fres.Ignored {
		t.Fatalf("StepEv NOP: %+v, %v", fres, err)
	}
}

// TestStepEvArgErrors pins the argument-validation failure modes.
func TestStepEvArgErrors(t *testing.T) {
	prog, err := CompileSpec(frameSpec())
	if err != nil {
		t.Fatal(err)
	}
	m := prog.NewMachine()
	goID, _ := prog.EventID("GO")
	if _, err := m.StepEv(goID); !errors.Is(err, ErrBadArg) {
		t.Fatalf("missing arg: %v", err)
	}
	if _, err := m.StepEv(goID, expr.U8(1)); !errors.Is(err, ErrBadArg) {
		t.Fatalf("wrong kind: %v", err)
	}
	if _, err := m.StepEv(EventID(99)); !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("bad id: %v", err)
	}
	endID, _ := prog.EventID("END")
	m2 := prog.NewMachine()
	if _, err := m2.StepEv(endID); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.StepEv(endID); !errors.Is(err, ErrInvalidTransition) {
		t.Fatalf("invalid transition: %v", err)
	}
}

// TestStepEvZeroAllocs pins the frame path's allocation contract: a
// fired transition with a guard, an assignment and an output allocates
// nothing in steady state.
func TestStepEvZeroAllocs(t *testing.T) {
	prog, err := CompileSpec(frameSpec())
	if err != nil {
		t.Fatal(err)
	}
	m := prog.NewMachine()
	goID, _ := prog.EventID("GO")
	shape := prog.MsgShape("Msg")
	f := expr.NewFrame(shape.NumFields())
	idSlot, _ := shape.Slot("id")
	bodySlot, _ := shape.Slot("body")
	f.Set(bodySlot, expr.BytesView([]byte{1, 2, 3}))
	seqSlot := uint64(0)
	if n := testing.AllocsPerRun(200, func() {
		f.Set(idSlot, expr.U8(seqSlot))
		res, err := m.StepEv(goID, expr.FrameMsg(shape, f))
		if err != nil {
			t.Fatal(err)
		}
		if res.Fired != nil {
			seqSlot++
		}
	}); n != 0 {
		t.Fatalf("StepEv allocates %.1f/op", n)
	}
}

// TestPositionalArgsMatchesStep pins PositionalArgs to Step's argument
// binding: a binding Step refuses fails with Step's exact error, and an
// accepted one, passed to StepEv, steps like Step does.
func TestPositionalArgsMatchesStep(t *testing.T) {
	prog, err := CompileSpec(frameSpec())
	if err != nil {
		t.Fatal(err)
	}
	goID, _ := prog.EventID("GO")
	mapMsg, _ := msgArg(prog, 0, []byte{7})
	for name, args := range map[string]map[string]expr.Value{
		"ok":         {"m": mapMsg},
		"missing":    nil,
		"renamed":    {"n": mapMsg},
		"extra":      {"m": mapMsg, "x": expr.U8(1)},
		"wrong kind": {"m": expr.U8(1)},
	} {
		pos, perr := prog.PositionalArgs(goID, args)
		mStep, mEv := prog.NewMachine(), prog.NewMachine()
		sres, serr := mStep.Step("GO", args)
		if serr != nil || perr != nil {
			if serr == nil || perr == nil || serr.Error() != perr.Error() {
				t.Errorf("%s: PositionalArgs err %v, Step err %v", name, perr, serr)
			}
			continue
		}
		fres, ferr := mEv.StepEv(goID, pos...)
		if ferr != nil || (fres.Fired == nil) != (sres.Fired == nil) || mEv.StateKey() != mStep.StateKey() {
			t.Errorf("%s: StepEv(%v) = %+v, %v; Step = %+v", name, pos, fres, ferr, sres)
		}
	}
	if _, err := prog.PositionalArgs(EventID(99), nil); !errors.Is(err, ErrUnknownEvent) {
		t.Errorf("bad id: %v", err)
	}
}

// TestAcceptsMatchesSpec pins Accepts to the spec's dispatch table: an
// event is executable exactly where a transition or ignore is declared.
func TestAcceptsMatchesSpec(t *testing.T) {
	spec := frameSpec()
	prog, err := CompileSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := prog.NewMachine()
	endID, _ := prog.EventID("END")
	for step := 0; step < 2; step++ {
		for _, ev := range spec.Events {
			id, _ := prog.EventID(ev.Name)
			want := len(spec.TransitionsFrom(m.State(), ev.Name)) > 0 || spec.Ignored(m.State(), ev.Name)
			if got := m.Accepts(id); got != want {
				t.Errorf("state %s event %s: Accepts = %v, want %v", m.State(), ev.Name, got, want)
			}
		}
		if step == 0 {
			if _, err := m.StepEv(endID); err != nil { // A -> B
				t.Fatal(err)
			}
		}
	}
	if m.Accepts(-1) || m.Accepts(EventID(len(spec.Events))) {
		t.Error("Accepts holds for an unknown event id")
	}
}

// TestCopyVarsRefillsInPlace pins CopyVars: it writes the current values
// and, refilled, reuses the map without allocating.
func TestCopyVarsRefillsInPlace(t *testing.T) {
	prog, err := CompileSpec(frameSpec())
	if err != nil {
		t.Fatal(err)
	}
	m := prog.NewMachine()
	vars := make(map[string]expr.Value)
	m.CopyVars(vars)
	if len(vars) != 1 || !vars["seq"].Equal(expr.U8(0)) {
		t.Fatalf("CopyVars = %v", vars)
	}
	goID, _ := prog.EventID("GO")
	_, frameMsg := msgArg(prog, 0, nil)
	if _, err := m.StepEv(goID, frameMsg); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { m.CopyVars(vars) }); n != 0 {
		t.Errorf("CopyVars refill allocates %.1f/op", n)
	}
	if !vars["seq"].Equal(expr.U8(1)) {
		t.Errorf("after GO, CopyVars seq = %v, want 1", vars["seq"])
	}
}
