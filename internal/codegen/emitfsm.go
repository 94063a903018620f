package codegen

import (
	"fmt"
	"sort"
	"strings"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
)

// machine emits both generated forms of one state machine:
//
//   - the typed witness API: one struct type per state, a transition
//     method existing only on its legal source state (undeclared
//     transitions are Go compile errors), Checked message parameters;
//   - the flat machine: dense state/event indices, per-event dispatch
//     tables from the compiled fsm.Program's rows, value-staged outputs
//     — one table load and an indirect call per delivery, no maps, no
//     interfaces, no allocations.
func (g *generator) machine(prog *fsm.Program) error {
	spec := prog.Spec()
	mName := goName(spec.Name)

	g.p("// %sVars holds machine %s's variables; every state carries them.", mName, spec.Name)
	g.p("type %sVars struct {", mName)
	for _, v := range spec.Vars {
		g.p("\t%s %s", goName(v.Name), goValueType(v.Type))
	}
	g.p("}")
	g.p("")

	for _, st := range spec.States {
		sName := mName + goName(st.Name)
		role := ""
		switch {
		case st.Init:
			role = " (initial)"
		case st.Final:
			role = " (final: no transitions leave it)"
		}
		if st.Doc != "" {
			g.p("// %s is state %q%s: %s", sName, st.Name, role, st.Doc)
		} else {
			g.p("// %s is machine %s in state %q%s.", sName, spec.Name, st.Name, role)
		}
		g.p("type %s struct {", sName)
		g.p("\tVars %sVars", mName)
		g.p("}")
		g.p("")
		g.p("// StateName returns the state's name as declared in the spec.")
		g.p("func (%s) StateName() string { return %q }", sName, st.Name)
		g.p("")
	}

	init := spec.InitState()
	g.p("// New%s returns the machine in its initial state %q.", mName, init)
	g.p("func New%s() %s%s {", mName, mName, goName(init))
	g.p("\treturn %s%s{Vars: %s}", mName, goName(init), initVarsLiteral(spec, mName))
	g.p("}")
	g.p("")

	// Guard against duplicate method names per source state.
	seen := make(map[string]bool)
	for i := range spec.Transitions {
		t := &spec.Transitions[i]
		if t.Name == "" {
			return fmt.Errorf("codegen: machine %s: transition #%d (%s--%s->%s) needs a name",
				spec.Name, i, t.From, t.Event, t.To)
		}
		key := t.From + "." + goName(t.Name)
		if seen[key] {
			return fmt.Errorf("codegen: machine %s: duplicate transition name %q on state %s",
				spec.Name, t.Name, t.From)
		}
		seen[key] = true
		if err := g.transition(spec, mName, t); err != nil {
			return err
		}
	}

	return g.flatMachine(prog)
}

// initVarsLiteral renders the machine's initial variable values as a
// composite literal.
func initVarsLiteral(spec *fsm.Spec, mName string) string {
	var parts []string
	for _, v := range spec.Vars {
		if v.Init.IsValid() {
			lit, err := goValueLiteral(v.Init)
			if err != nil {
				continue // non-literal inits refused by transition checks
			}
			parts = append(parts, goName(v.Name)+": "+lit)
		}
	}
	return mName + "Vars{" + strings.Join(parts, ", ") + "}"
}

func (g *generator) transition(spec *fsm.Spec, mName string, t *fsm.Transition) error {
	ev, _ := spec.EventByName(t.Event)
	fromT := mName + goName(t.From)
	toT := mName + goName(t.To)
	method := goName(t.Name)
	if len(t.Outputs) > 1 {
		return fmt.Errorf("codegen: machine %s transition %s: at most one output supported, got %d",
			spec.Name, t.Name, len(t.Outputs))
	}

	// Bind machine vars and event params for expression translation.
	tr := &goTranslator{messages: g.proto.Messages, vars: make(map[string]varBinding)}
	for _, v := range spec.Vars {
		tr.vars[v.Name] = varBinding{code: "s.Vars." + goName(v.Name), typ: v.Type}
	}
	var params []string
	var witnessChecks []string
	for _, p := range ev.Params {
		tr.vars[p.Name] = varBinding{code: p.Name, typ: p.Type, checkedMsg: p.Type.Kind == expr.KindMsg}
		params = append(params, p.Name+" "+goParamType(p.Type))
		if p.Type.Kind == expr.KindMsg {
			witnessChecks = append(witnessChecks, p.Name)
		}
	}

	returns := "(" + toT + ", error)"
	zeroReturn := toT + "{}"
	outName := ""
	if len(t.Outputs) == 1 {
		outName = goName(t.Outputs[0].Message)
		returns = "(" + toT + ", " + outName + ", error)"
		zeroReturn = toT + "{}, " + outName + "{}"
	}

	g.p("// %s implements transition %q: %s --%s--> %s.", method, t.Name, t.From, t.Event, t.To)
	if t.Guard != nil {
		g.p("// It returns genrt.ErrGuardFailed — and the caller keeps its current")
		g.p("// state value — when the guard `%s` does not hold.", t.Guard.String())
	}
	g.p("func (s %s) %s(%s) %s {", fromT, method, strings.Join(params, ", "), returns)
	for _, w := range witnessChecks {
		g.p("\tif !%s.Valid() {", w)
		g.p("\t\treturn %s, genrt.ErrUnverified", zeroReturn)
		g.p("\t}")
	}
	if t.Guard != nil {
		code, _, err := tr.translate(t.Guard)
		if err != nil {
			return fmt.Errorf("codegen: machine %s transition %s guard: %w", spec.Name, t.Name, err)
		}
		g.p("\tif !(%s) {", code)
		g.p("\t\treturn %s, genrt.ErrGuardFailed", zeroReturn)
		g.p("\t}")
	}
	// Simultaneous assignment: RHS reads s.Vars (pre-state) only.
	g.p("\tvars := s.Vars")
	for _, a := range t.Assigns {
		code, at, err := tr.translate(a.Expr)
		if err != nil {
			return fmt.Errorf("codegen: machine %s transition %s assign %s: %w", spec.Name, t.Name, a.Var, err)
		}
		v, _ := spec.VarByName(a.Var)
		g.p("\tvars.%s = %s", goName(a.Var), castTo(code, at, v.Type))
	}
	if len(t.Outputs) == 1 {
		lit, err := g.outputLiteral(spec, tr, t, &t.Outputs[0])
		if err != nil {
			return err
		}
		g.p("\tout := %s", lit)
		g.p("\treturn %s{Vars: vars}, out, nil", toT)
	} else {
		g.p("\treturn %s{Vars: vars}, nil", toT)
	}
	g.p("}")
	g.p("")
	return nil
}

// outputLiteral renders an output message as a composite literal with
// its declared fields in sorted order (undeclared fields stay zero).
func (g *generator) outputLiteral(spec *fsm.Spec, tr *goTranslator, t *fsm.Transition, out *fsm.Output) (string, error) {
	msg := g.proto.Messages[out.Message]
	names := make([]string, 0, len(out.Fields))
	for n := range out.Fields {
		names = append(names, n)
	}
	sort.Strings(names)
	var parts []string
	for _, fname := range names {
		f, _ := msg.Field(fname)
		code, ft, err := tr.translate(out.Fields[fname])
		if err != nil {
			return "", fmt.Errorf("codegen: machine %s transition %s output field %s: %w",
				spec.Name, t.Name, fname, err)
		}
		parts = append(parts, goName(fname)+": "+castTo(code, ft, f.Type()))
	}
	return goName(out.Message) + "{" + strings.Join(parts, ", ") + "}", nil
}

// flatMachine emits the dense-dispatch form of the machine from the
// compiled program's state×event rows.
func (g *generator) flatMachine(prog *fsm.Program) error {
	spec := prog.Spec()
	mName := goName(spec.Name)
	lname := lowerFirst(mName)
	nStates, nEvents := prog.NumStates(), prog.NumEvents()

	reserved := map[string]bool{"Reset": true, "StateName": true, "StateIndex": true, "InFinal": true, "Vars": true}
	for e := 0; e < nEvents; e++ {
		if name := goName(prog.EventAt(e).Name); reserved[name] {
			return fmt.Errorf("codegen: machine %s: event name %q collides with a flat-machine method",
				spec.Name, prog.EventAt(e).Name)
		}
	}

	g.p("// Dense state and event indices for the flat %sMachine dispatch", mName)
	g.p("// tables, in spec declaration order (see DESIGN.md §11).")
	g.p("const (")
	for s := 0; s < nStates; s++ {
		g.p("\t%sSt%s = %d", mName, goName(prog.StateName(s)), s)
	}
	g.p("\t%sNumStates = %d", mName, nStates)
	g.p(")")
	g.p("")
	g.p("const (")
	for e := 0; e < nEvents; e++ {
		g.p("\t%sEv%s = %d", mName, goName(prog.EventAt(e).Name), e)
	}
	g.p("\t%sNumEvents = %d", mName, nEvents)
	g.p(")")
	g.p("")

	g.p("var %sStateNames = [%sNumStates]string{", lname, mName)
	for s := 0; s < nStates; s++ {
		g.p("\t%q,", prog.StateName(s))
	}
	g.p("}")
	g.p("")
	g.p("var %sFinals = [%sNumStates]bool{", lname, mName)
	for s := 0; s < nStates; s++ {
		g.p("\t%t,", prog.FinalState(s))
	}
	g.p("}")
	g.p("")

	// Program-wide transition indices: a fired delivery returns one of
	// these as its StepOutcome.
	trConst := make([]string, len(spec.Transitions))
	if len(spec.Transitions) > 0 {
		g.p("// %sTransitionNames maps a fired StepOutcome index to the", mName)
		g.p("// transition's spec name.")
		g.p("var %sTransitionNames = [...]string{", mName)
		for i := range spec.Transitions {
			g.p("\t%q,", spec.Transitions[i].Name)
		}
		g.p("}")
		g.p("")
		used := make(map[string]bool)
		g.p("const (")
		for i := range spec.Transitions {
			name := mName + "Tr" + goName(spec.Transitions[i].Name)
			if used[name] {
				name = fmt.Sprintf("%s%d", name, i)
			}
			used[name] = true
			trConst[i] = name
			g.p("\t%s genrt.StepOutcome = %d", name, i)
		}
		g.p(")")
		g.p("")
	}

	// Output staging fields: one value per distinct output message.
	outMsgs := flatOutputMessages(spec)

	g.p("// %sMachine executes machine %s as flat table dispatch: state and", mName, spec.Name)
	g.p("// event are dense indices, delivering an event is one table load and")
	g.p("// an indirect call, and outputs are staged in value fields — no maps,")
	g.p("// no interface values, no allocations on any path. It is the raw")
	g.p("// dispatch core; the typed state API above carries the compile-time")
	g.p("// transition proofs.")
	g.p("type %sMachine struct {", mName)
	g.p("\tstate int32")
	g.p("\t// Vars are the machine variables (write only via transitions).")
	g.p("\tVars %sVars", mName)
	for _, om := range outMsgs {
		g.p("\t// Out%s is staged by the last fired transition that emits a", goName(om))
		g.p("\t// %s; it is valid until the next delivery.", goName(om))
		g.p("\tOut%s %s", goName(om), goName(om))
	}
	g.p("}")
	g.p("")

	g.p("// New%sMachine returns the flat machine in its initial state %q.", mName, spec.InitState())
	g.p("func New%sMachine() %sMachine {", mName, mName)
	g.p("\treturn %sMachine{state: %sSt%s, Vars: %s}", mName, mName, goName(spec.InitState()), initVarsLiteral(spec, mName))
	g.p("}")
	g.p("")
	g.p("// Reset returns the machine to its initial state and variable values.")
	g.p("func (m *%sMachine) Reset() { *m = New%sMachine() }", mName, mName)
	g.p("")
	g.p("// StateIndex returns the dense index of the current state.")
	g.p("func (m *%sMachine) StateIndex() int { return int(m.state) }", mName)
	g.p("")
	g.p("// StateName returns the state's name as declared in the spec.")
	g.p("func (m *%sMachine) StateName() string { return %sStateNames[m.state] }", mName, lname)
	g.p("")
	g.p("// InFinal reports whether the machine is in an accepting state.")
	g.p("func (m *%sMachine) InFinal() bool { return %sFinals[m.state] }", mName, lname)
	g.p("")

	for e := 0; e < nEvents; e++ {
		if err := g.flatEvent(prog, mName, lname, e, trConst); err != nil {
			return err
		}
	}
	return nil
}

// flatOutputMessages returns the distinct output message names across
// all transitions, in first-appearance order.
func flatOutputMessages(spec *fsm.Spec) []string {
	var out []string
	seen := make(map[string]bool)
	for i := range spec.Transitions {
		for _, o := range spec.Transitions[i].Outputs {
			if !seen[o.Message] {
				seen[o.Message] = true
				out = append(out, o.Message)
			}
		}
	}
	return out
}

// flatEvent emits one event's dispatch table, row functions and entry
// method.
func (g *generator) flatEvent(prog *fsm.Program, mName, lname string, e int, trConst []string) error {
	spec := prog.Spec()
	ev := prog.EventAt(e)
	evName := goName(ev.Name)

	recv := "m"
	for _, p := range ev.Params {
		if p.Name == "m" {
			recv = "mm"
		}
	}
	var sigParams, callParams, tabParams []string
	for _, p := range ev.Params {
		sigParams = append(sigParams, p.Name+" "+flatParamType(p.Type))
		callParams = append(callParams, p.Name)
		tabParams = append(tabParams, flatParamType(p.Type))
	}
	fnType := fmt.Sprintf("func(*%sMachine%s) (genrt.StepOutcome, error)", mName,
		strings.Join(append([]string{""}, tabParams...), ", "))
	if len(tabParams) == 0 {
		fnType = fmt.Sprintf("func(*%sMachine) (genrt.StepOutcome, error)", mName)
	}

	// Classify each state's row.
	type rowKind int
	const (
		rowNone rowKind = iota
		rowIgnore
		rowFire
	)
	kinds := make([]rowKind, prog.NumStates())
	anyIgnore := false
	for s := 0; s < prog.NumStates(); s++ {
		row := prog.RowIR(s, e)
		switch {
		case len(row.Transitions) > 0:
			kinds[s] = rowFire
		case row.Ignored:
			kinds[s] = rowIgnore
			anyIgnore = true
		}
	}

	// Row functions first, then the shared ignore row, then the table.
	for s := 0; s < prog.NumStates(); s++ {
		if kinds[s] != rowFire {
			continue
		}
		if err := g.flatRow(prog, mName, lname, s, e, recv, sigParams, trConst); err != nil {
			return err
		}
	}
	if anyIgnore {
		g.p("func %s%sIgnore(%s *%sMachine%s) (genrt.StepOutcome, error) {", lname, evName, recv, mName,
			prefixJoin(sigParams))
		g.p("\treturn genrt.StepIgnored, nil")
		g.p("}")
		g.p("")
	}

	g.p("var %s%sTab = [%sNumStates]%s{", lname, evName, mName, fnType)
	for s := 0; s < prog.NumStates(); s++ {
		switch kinds[s] {
		case rowFire:
			g.p("\t%sSt%s: %s%sFrom%s,", mName, goName(prog.StateName(s)), lname, evName, goName(prog.StateName(s)))
		case rowIgnore:
			g.p("\t%sSt%s: %s%sIgnore,", mName, goName(prog.StateName(s)), lname, evName)
		}
	}
	g.p("}")
	g.p("")

	g.p("// %s delivers event %q. The outcome is the fired transition's", evName, ev.Name)
	g.p("// program-wide index (%sTr*), genrt.StepIgnored, or genrt.StepRejected", mName)
	g.p("// when every declared guard fails; genrt.ErrNoTransition reports an")
	g.p("// event the current state neither handles nor ignores.")
	g.p("func (%s *%sMachine) %s(%s) (genrt.StepOutcome, error) {", recv, mName, evName, strings.Join(sigParams, ", "))
	call := strings.Join(append([]string{recv}, callParams...), ", ")
	g.p("\tif fn := %s%sTab[%s.state]; fn != nil {", lname, evName, recv)
	g.p("\t\treturn fn(%s)", call)
	g.p("\t}")
	g.p("\treturn genrt.StepNone, genrt.ErrNoTransition")
	g.p("}")
	g.p("")
	_ = spec
	return nil
}

func prefixJoin(params []string) string {
	if len(params) == 0 {
		return ""
	}
	return ", " + strings.Join(params, ", ")
}

// flatRow emits the row function for (state, event): guards tried in
// declaration order, first hold fires — assign RHS and outputs evaluate
// against the pre-state, then assigns apply and the state moves.
func (g *generator) flatRow(prog *fsm.Program, mName, lname string, s, e int, recv string, sigParams []string, trConst []string) error {
	spec := prog.Spec()
	ev := prog.EventAt(e)
	row := prog.RowIR(s, e)
	evName := goName(ev.Name)
	stName := goName(prog.StateName(s))

	tr := &goTranslator{messages: g.proto.Messages, vars: make(map[string]varBinding)}
	for _, v := range spec.Vars {
		tr.vars[v.Name] = varBinding{code: recv + ".Vars." + goName(v.Name), typ: v.Type}
	}
	for _, p := range ev.Params {
		tr.vars[p.Name] = varBinding{code: p.Name, typ: p.Type}
	}

	g.p("func %s%sFrom%s(%s *%sMachine%s) (genrt.StepOutcome, error) {", lname, evName, stName, recv, mName,
		prefixJoin(sigParams))
	unconditional := false
	for ti, t := range row.Transitions {
		gi := row.Indices[ti]
		indent := "\t"
		if t.Guard != nil {
			code, _, err := tr.translate(t.Guard)
			if err != nil {
				return fmt.Errorf("codegen: machine %s transition %s guard: %w", spec.Name, t.Name, err)
			}
			g.p("\tif %s {", code)
			indent = "\t\t"
		} else {
			unconditional = true
		}
		for _, a := range t.Assigns {
			code, at, err := tr.translate(a.Expr)
			if err != nil {
				return fmt.Errorf("codegen: machine %s transition %s assign %s: %w", spec.Name, t.Name, a.Var, err)
			}
			v, _ := spec.VarByName(a.Var)
			g.p("%snv%s := %s", indent, goName(a.Var), castTo(code, at, v.Type))
		}
		if len(t.Outputs) == 1 {
			lit, err := g.outputLiteral(spec, tr, t, &t.Outputs[0])
			if err != nil {
				return err
			}
			g.p("%s%s.Out%s = %s", indent, recv, goName(t.Outputs[0].Message), lit)
		}
		for _, a := range t.Assigns {
			g.p("%s%s.Vars.%s = nv%s", indent, recv, goName(a.Var), goName(a.Var))
		}
		g.p("%s%s.state = %sSt%s", indent, recv, mName, goName(t.To))
		g.p("%sreturn %s, nil", indent, trConst[gi])
		if t.Guard != nil {
			g.p("\t}")
		} else {
			break
		}
	}
	if !unconditional {
		g.p("\treturn genrt.StepRejected, nil")
	}
	g.p("}")
	g.p("")
	return nil
}
