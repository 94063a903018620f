// Benchmark harness: one benchmark per experiment table that
// `go run ./cmd/experiments` prints (E1..E10) plus the design-choice
// ablations of DESIGN.md §6. Run with
//
//	go test -bench=. -benchmem
//
// The human-readable experiment tables come from `go run ./cmd/experiments`;
// these benchmarks put numbers on the same code paths.
package protodsl

import (
	"fmt"
	"os"
	"testing"
	"time"

	"protodsl/internal/arq"
	gen "protodsl/internal/arq/gen"
	"protodsl/internal/codegen"
	"protodsl/internal/dfa"
	"protodsl/internal/dsl"
	"protodsl/internal/expr"
	"protodsl/internal/fsm"
	"protodsl/internal/harness"
	"protodsl/internal/ipv4"
	"protodsl/internal/loc"
	"protodsl/internal/netsim"
	"protodsl/internal/sockets"
	"protodsl/internal/testgen"
	"protodsl/internal/trust"
	"protodsl/internal/tuning"
	"protodsl/internal/verify"
	"protodsl/internal/wire"
)

// ---- E1: Figure 1 / IPv4 codec ----

func BenchmarkE1IPv4Codec(b *testing.B) {
	codec, err := ipv4.NewCodec()
	if err != nil {
		b.Fatal(err)
	}
	h := ipv4.Header{
		Version: 4, IHL: 5, TotalLength: 40, Identification: 0x1c46,
		Flags: 0x2, TTL: 64, Protocol: 6,
		Source: [4]byte{192, 168, 1, 1}, Destination: [4]byte{10, 0, 0, 1},
	}
	enc, err := codec.Encode(h)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := codec.Encode(h); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append-encode", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := codec.AppendEncode(buf[:0], h)
			if err != nil {
				b.Fatal(err)
			}
			buf = out[:0]
		}
	})
	b.Run("decode+validate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := codec.Decode(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-in-place", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := codec.DecodeInPlace(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E2: LoC classification ----

func BenchmarkE2LocAnalysis(b *testing.B) {
	src, err := os.ReadFile("internal/sockets/sockets.go")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := loc.AnalyzeSource("sockets.go", string(src)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E3: validate-once witnesses ----

func BenchmarkE3ValidateOnce(b *testing.B) {
	codec, err := arq.NewCodec()
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	enc, err := codec.EncodePacket(1, payload)
	if err != nil {
		b.Fatal(err)
	}
	for _, stages := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("revalidate/stages=%d", stages), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for s := 0; s < stages; s++ {
					if _, err := codec.DecodePacket(enc); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("witness/stages=%d", stages), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pkt, err := codec.DecodePacket(enc)
				if err != nil {
					b.Fatal(err)
				}
				acc := 0
				for s := 0; s < stages; s++ {
					acc += int(pkt.Value().Seq)
				}
				_ = acc
			}
		})
	}
}

// ---- E4: static check vs model check ----

func BenchmarkE4StaticVsModelCheck(b *testing.B) {
	for _, seq := range []int{4, 16, 64} {
		sys, err := verify.BuildARQ(verify.ARQOptions{SeqSpace: seq, Capacity: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("static/seq=%d", seq), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, spec := range sys.Specs {
					if rep := fsm.Check(spec); !rep.OK() {
						b.Fatal("check failed")
					}
				}
			}
		})
		b.Run(fmt.Sprintf("model/seq=%d", seq), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := verify.Explore(sys, verify.Options{MaxStates: 1 << 22})
				if err != nil || res.Truncated {
					b.Fatal(err, res.Truncated)
				}
			}
		})
	}
}

// ---- E5: ARQ loss sweep ----

func benchPayloads(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		p := make([]byte, size)
		for j := range p {
			p[j] = byte(i + j)
		}
		out[i] = p
	}
	return out
}

func BenchmarkE5ARQLossSweep(b *testing.B) {
	payloads := benchPayloads(30, 64)
	for _, loss := range []float64{0, 0.2, 0.5} {
		b.Run(fmt.Sprintf("loss=%.0f%%", loss*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := arq.RunTransfer(arq.Config{
					Seed: int64(i),
					Link: netsim.LinkParams{Delay: 2 * time.Millisecond, LossProb: loss},
					RTO:  20 * time.Millisecond, MaxRetries: 80,
				}, payloads)
				if err != nil {
					b.Fatal(err)
				}
				if res.SenderState != arq.StSent && res.SenderState != arq.StTimeout {
					b.Fatal("inconsistent end state")
				}
			}
		})
	}
}

// ---- E6: fuzzy adaptation ----

func BenchmarkE6FuzzyAdaptation(b *testing.B) {
	capacities := SteppedCapacity([]float64{800, 200, 600, 100}, 40)
	for i := 0; i < b.N; i++ {
		ctrl, err := NewRateController(50, 1000, 400)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := SimulateStream(capacities, FuzzySender{Controller: ctrl}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E7: trust routing ----

func BenchmarkE7TrustRouting(b *testing.B) {
	for _, strat := range []trust.Strategy{trust.StrategyRandom, trust.StrategyTrust} {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := trust.Run(trust.Config{
					Relays: 8, AdversarialFraction: 0.5,
					Strategy: strat, Messages: 200, Seed: int64(i),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E8: timer tuning ----

func BenchmarkE8TimerTuning(b *testing.B) {
	regime := tuning.StepRegime(50, 10*time.Millisecond, 120*time.Millisecond)
	b.Run("fixed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tuning.Run(tuning.Config{
				Regime: regime, Policy: tuning.FixedTimer{D: 30 * time.Millisecond},
				LossProb: 0.1, Seed: int64(i),
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("adaptive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			est, err := tuning.NewRTOEstimator(100*time.Millisecond, 5*time.Millisecond, 5*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tuning.Run(tuning.Config{
				Regime: regime, Policy: tuning.AdaptiveTimer{E: est},
				LossProb: 0.1, Seed: int64(i),
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E9: behavioural test generation ----

func BenchmarkE9TestGen(b *testing.B) {
	spec := arq.SenderSpec()
	b.Run("generate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := testgen.Generate(spec, testgen.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	suite, err := testgen.Generate(spec, testgen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := testgen.Run(spec, suite); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E10: exact checker vs DFA ----

func BenchmarkE10CheckerVsDFA(b *testing.B) {
	spec := arq.SenderSpec()
	b.Run("fsm-check", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if rep := fsm.Check(spec); !rep.OK() {
				b.Fatal("check failed")
			}
		}
	})
	d := dfa.SocketDFA()
	prog := &dfa.Seq{Stmts: []dfa.Stmt{
		&dfa.If{CondID: 1, Then: &dfa.Call{Sym: "open"}},
		&dfa.If{CondID: 1, Then: &dfa.Seq{Stmts: []dfa.Stmt{
			&dfa.Call{Sym: "send"}, &dfa.Call{Sym: "close"},
		}}},
	}}
	b.Run("dfa-analyze", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.Analyze(prog)
		}
	})
	b.Run("dfa-exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.ExactCheck(prog, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E11: sharded multi-flow contention ----

// BenchmarkE11MultiFlow drives the experiment harness end to end: 4
// seeded shards across the worker pool, each simulating flowsPerShard
// concurrent ARQ flows over one shared 512 KiB/s bottleneck — 32 total
// concurrent flows at the top size. Run with -race in CI to pin the
// one-Sim-per-goroutine contract.
func BenchmarkE11MultiFlow(b *testing.B) {
	const shards = 4
	for _, variant := range []harness.Variant{harness.VariantGBN, harness.VariantSR} {
		for _, flowsPerShard := range []int{2, 8} {
			name := fmt.Sprintf("%s/flows=%d", variant, shards*flowsPerShard)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rep, err := harness.Run(harness.MultiFlowConfig{
						Flows:           flowsPerShard,
						PayloadsPerFlow: 20,
						PayloadSize:     128,
						Variant:         variant,
						Window:          8,
						RTO:             80 * time.Millisecond,
						MaxRetries:      60,
						Bottleneck: netsim.LinkParams{
							Delay:     2 * time.Millisecond,
							Bandwidth: 512 * 1024,
							LossProb:  0.02,
						},
						Seed: int64(i),
					}, shards, 0)
					if err != nil {
						b.Fatal(err)
					}
					if rep.OKFlows != rep.Flows {
						b.Fatalf("only %d/%d flows completed", rep.OKFlows, rep.Flows)
					}
				}
			})
		}
	}
}

// ---- Ablations (DESIGN.md §6) ----

// BenchmarkCompiledVsTreeWalk: the compiled expression engine against the
// tree-walking interpreter on the ARQ machines' hot expressions — the
// guards evaluated on every ack/packet plus the sequence-advance
// assignment. Both paths see identical scopes and produce identical
// values (asserted by TestCompiledEngineDifferential in internal/dsl).
func BenchmarkCompiledVsTreeWalk(b *testing.B) {
	exprs := []string{
		"ack.seq == seq", // sender OK guard
		"p.seq == seq",   // receiver accept guard
		"p.seq != seq",   // receiver dupack guard
		"seq + 1",        // sequence advance
	}
	parsed := make([]expr.Expr, len(exprs))
	for i, src := range exprs {
		parsed[i] = expr.MustParse(src)
	}
	ack := expr.Msg("Ack", map[string]expr.Value{"seq": expr.U8(7), "chk": expr.U8(0)})
	pkt := expr.Msg("Packet", map[string]expr.Value{
		"seq": expr.U8(7), "chk": expr.U8(0), "paylen": expr.U16(3),
		"payload": expr.Bytes([]byte{1, 2, 3}),
	})

	b.Run("tree-walk", func(b *testing.B) {
		scope := expr.MapScope{"seq": expr.U8(7), "ack": ack, "p": pkt}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, e := range parsed {
				if _, err := expr.Eval(e, scope); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		layout := expr.NewScopeLayout()
		frame := func() *expr.Frame {
			seq, a, p := layout.Add("seq"), layout.Add("ack"), layout.Add("p")
			f := layout.NewFrame()
			f.Set(seq, expr.U8(7))
			f.Set(a, ack)
			f.Set(p, pkt)
			return f
		}()
		compiled := make([]expr.Compiled, len(parsed))
		for i, e := range parsed {
			compiled[i] = expr.Compile(e, layout)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, c := range compiled {
				if _, err := c(frame); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	// The same comparison at machine granularity: a full send/ack step
	// pair through the interpreter, which executes the compiled program.
	b.Run("machine-step", func(b *testing.B) {
		m, err := fsm.NewMachine(arq.SenderSpec())
		if err != nil {
			b.Fatal(err)
		}
		data := expr.Bytes([]byte{1, 2, 3})
		sendArgs := map[string]expr.Value{"data": data}
		ackFields := map[string]expr.Value{"seq": expr.U8(0), "chk": expr.U8(0)}
		okArgs := map[string]expr.Value{"ack": expr.MsgView("Ack", ackFields)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Step(arq.EvSend, sendArgs); err != nil {
				b.Fatal(err)
			}
			seq, _ := m.Var("seq")
			ackFields["seq"] = seq
			if _, err := m.Step(arq.EvOK, okArgs); err != nil {
				b.Fatal(err)
			}
		}
	})

	// And the slot-frame path the engines actually run: positional args,
	// shape-backed message values, frame outputs (fsm.Machine.StepEv).
	b.Run("machine-step-frame", func(b *testing.B) {
		m, err := fsm.NewMachine(arq.SenderSpec())
		if err != nil {
			b.Fatal(err)
		}
		evSend, _ := m.EventID(arq.EvSend)
		evOK, _ := m.EventID(arq.EvOK)
		ackShape := m.Program().MsgShape("Ack")
		ackFrame := expr.NewFrame(ackShape.NumFields())
		seqSlot, _ := ackShape.Slot("seq")
		chkSlot, _ := ackShape.Slot("chk")
		ackFrame.Set(chkSlot, expr.U8(0))
		data := expr.Bytes([]byte{1, 2, 3})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.StepEv(evSend, data); err != nil {
				b.Fatal(err)
			}
			seq, _ := m.Var("seq")
			ackFrame.Set(seqSlot, seq)
			if _, err := m.StepEv(evOK, expr.FrameMsg(ackShape, ackFrame)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationInterpVsCodegen: the fsm interpreter's Step against
// the generated typed-state transitions, on the ARQ send/ack hot loop.
func BenchmarkAblationInterpVsCodegen(b *testing.B) {
	b.Run("interpreter", func(b *testing.B) {
		m, err := fsm.NewMachine(arq.SenderSpec())
		if err != nil {
			b.Fatal(err)
		}
		data := expr.Bytes([]byte{1, 2, 3})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Step(arq.EvSend, map[string]expr.Value{"data": data}); err != nil {
				b.Fatal(err)
			}
			seq, _ := m.Var("seq")
			ack := expr.Msg("Ack", map[string]expr.Value{
				"seq": seq, "chk": expr.U8(0),
			})
			if _, err := m.Step(arq.EvOK, map[string]expr.Value{"ack": ack}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generated", func(b *testing.B) {
		ready := gen.NewSender()
		data := []byte{1, 2, 3}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wait, _, err := ready.Send(data)
			if err != nil {
				b.Fatal(err)
			}
			ackBytes, err := gen.EncodeAck(gen.Ack{Seq: wait.Vars.Seq})
			if err != nil {
				b.Fatal(err)
			}
			ack, err := gen.DecodeAck(ackBytes)
			if err != nil {
				b.Fatal(err)
			}
			ready, err = wait.Ack(ack)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	// The flat machine strips the witness/codec layer from the loop:
	// this is the raw dispatch cost — table load, indirect call, staged
	// output — the shape the endpoint drivers run.
	b.Run("flat-machine", func(b *testing.B) {
		m := gen.NewSenderMachine()
		data := []byte{1, 2, 3}
		var ack gen.Ack
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.SEND(data); err != nil {
				b.Fatal(err)
			}
			ack.Seq = m.Vars.Seq
			if _, err := m.OK(&ack); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationCodecPath: the layout-interpreting wire codec against
// the generated inline codec, byte-identical outputs.
func BenchmarkAblationCodecPath(b *testing.B) {
	codec, err := arq.NewCodec()
	if err != nil {
		b.Fatal(err)
	}
	layout := codec.Packet
	payload := make([]byte, 128)
	vals := map[string]expr.Value{"seq": expr.U8(1), "payload": expr.Bytes(payload)}
	enc, err := layout.Encode(vals)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("layout-encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := layout.Encode(vals); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generated-encode", func(b *testing.B) {
		p := gen.Packet{Seq: 1, Payload: payload}
		for i := 0; i < b.N; i++ {
			if _, err := gen.EncodePacket(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("layout-append-encode", func(b *testing.B) {
		scratch := map[string]expr.Value{"seq": expr.U8(1), "payload": expr.BytesView(payload)}
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := layout.AppendEncode(buf[:0], scratch)
			if err != nil {
				b.Fatal(err)
			}
			buf = out[:0]
		}
	})
	b.Run("slot-append-encode", func(b *testing.B) {
		prog := layout.Program()
		frame := prog.NewFrame()
		seqSlot, _ := prog.Slot("seq")
		paySlot, _ := prog.Slot("payload")
		frame.Set(seqSlot, expr.U8(1))
		frame.Set(paySlot, expr.BytesView(payload))
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := prog.AppendEncode(buf[:0], frame)
			if err != nil {
				b.Fatal(err)
			}
			buf = out[:0]
		}
	})
	b.Run("generated-append-encode", func(b *testing.B) {
		p := gen.Packet{Seq: 1, Payload: payload}
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := gen.AppendEncodePacket(buf[:0], &p)
			if err != nil {
				b.Fatal(err)
			}
			buf = out[:0]
		}
	})
	b.Run("layout-decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := layout.Decode(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("layout-decode-into", func(b *testing.B) {
		vals := make(map[string]expr.Value, 4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := layout.DecodeInto(vals, enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("slot-decode-into", func(b *testing.B) {
		prog := layout.Program()
		frame := prog.NewFrame()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := prog.DecodeInto(frame, enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generated-decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gen.DecodePacket(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generated-decode-into", func(b *testing.B) {
		var p gen.Packet
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := gen.DecodePacketInto(&p, enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationChecksums: the paper's sum8 against inet16 and crc32
// on the same payload size.
func BenchmarkAblationChecksums(b *testing.B) {
	algoBits := map[wire.ChecksumAlgo]int{
		wire.ChecksumSum8: 8, wire.ChecksumInet16: 16, wire.ChecksumCRC32: 32,
	}
	for _, algo := range []wire.ChecksumAlgo{wire.ChecksumSum8, wire.ChecksumInet16, wire.ChecksumCRC32} {
		msg := &wire.Message{Name: "M", Fields: []wire.Field{
			{Name: "chk", Kind: wire.FieldUint, Bits: algoBits[algo],
				Compute: &wire.Compute{Kind: wire.ComputeChecksum, Algo: algo}},
			{Name: "body", Kind: wire.FieldBytes, LenKind: wire.LenRest},
		}}
		layout, err := wire.Compile(msg)
		if err != nil {
			b.Fatal(err)
		}
		vals := map[string]expr.Value{"body": expr.Bytes(make([]byte, 512))}
		b.Run(algo.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := layout.Encode(vals); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationWindow: stop-and-wait (window 1) vs go-back-N windows
// on a 10ms link — the further-work extension's payoff.
func BenchmarkAblationWindow(b *testing.B) {
	payloads := benchPayloads(30, 64)
	for _, window := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := arq.RunTransferGBN(arq.WindowConfig{
					Seed: int64(i), Window: window,
					Link: netsim.LinkParams{Delay: 10 * time.Millisecond},
					RTO:  100 * time.Millisecond,
				}, payloads)
				if err != nil || !res.OK {
					b.Fatal(err, res.OK)
				}
			}
		})
	}
}

// ---- Compiler-path benchmarks ----

func BenchmarkDSLCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := dsl.Compile(dsl.ARQSource); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodegen(b *testing.B) {
	proto, _, err := dsl.Compile(dsl.ARQSource)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := codegen.Generate(proto, codegen.Options{Package: "gen"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHandwrittenSocketsTransfer(b *testing.B) {
	payloads := benchPayloads(30, 64)
	for i := 0; i < b.N; i++ {
		if _, err := sockets.RunTransfer(sockets.Config{
			Seed: int64(i),
			Link: netsim.LinkParams{Delay: 2 * time.Millisecond, LossProb: 0.2},
			RTO:  20 * time.Millisecond, MaxRetries: 80,
		}, payloads); err != nil {
			b.Fatal(err)
		}
	}
}
