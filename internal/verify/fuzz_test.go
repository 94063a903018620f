package verify

import (
	"bytes"
	"testing"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
)

// FuzzStateCanon throws arbitrary bytes at the canonical state decoders
// the parallel checker trusts for dedup and rehydration, and checks:
//
//  1. Neither expr.DecodeCanon nor decodeGlobal panics, whatever the
//     input — the visited table must survive hostile encodings.
//  2. Any value that decodes re-encodes to a canonical fixed point:
//     decode(enc(v)) succeeds, consumes everything, and re-encodes to
//     identical bytes. (enc(decode(data)) may differ from data — the
//     decoder accepts non-minimal varints — but one round through the
//     encoder must be idempotent, or the dedup table would split states.)
//     expr.CanonLen agrees with DecodeCanon on where the value ends.
//  3. The same fixed-point property for whole global states of the
//     stop-and-wait system (FIFO routes) and a Go-Back-N system with
//     reordering routes: a decodable state encodes canonically, and
//     equal canonical bytes means equal fingerprints feeding the table.
//  4. Explore's worker decoder (byteState.decode) never panics, accepts
//     exactly what decodeGlobal accepts, and re-encodes an accepted state
//     to encodeGlobal's bytes for decodeGlobal's result — the first time,
//     when its intern cache is cold, and again from the warm cache. Every
//     interned message's value encodes to the entry's bytes.
//
// Seed corpus: testdata/fuzz/FuzzStateCanon (real root and mid-search
// state encodings plus truncated/bit-flipped mutations).
func FuzzStateCanon(f *testing.F) {
	arq, err := BuildARQ(ARQOptions{SeqSpace: 4, Capacity: 2, Lossy: true})
	if err != nil {
		f.Fatal(err)
	}
	gbn, err := BuildGBN(GBNOptions{SeqSpace: 4, Window: 2, Total: 3, Capacity: 2, Lossy: true, Reorder: true})
	if err != nil {
		f.Fatal(err)
	}
	var systems []*compiled
	for _, sys := range []*System{arq, gbn} {
		c, err := compileSystem(sys)
		if err != nil {
			f.Fatal(err)
		}
		systems = append(systems, c)
		seedStates(f, c)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add(expr.U8(7).AppendCanon(nil))
	f.Add(expr.Msg("Pkt", map[string]expr.Value{"seq": expr.U8(3)}).AppendCanon(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 1+2: single values.
		v, rest, err := expr.DecodeCanon(data)
		if err == nil {
			if l := expr.CanonLen(data); l != len(data)-len(rest) {
				t.Fatalf("CanonLen = %d, DecodeCanon consumed %d (data=%x)", l, len(data)-len(rest), data)
			}
			enc := v.AppendCanon(nil)
			v2, rest, err := expr.DecodeCanon(enc)
			if err != nil {
				t.Fatalf("re-decode of canonical encoding failed: %v (enc=%x)", err, enc)
			}
			if len(rest) != 0 {
				t.Fatalf("canonical encoding has %d trailing bytes: %x", len(rest), enc)
			}
			if enc2 := v2.AppendCanon(nil); !bytes.Equal(enc2, enc) {
				t.Fatalf("canonical encoding not a fixed point: %x -> %x", enc, enc2)
			}
		}

		for _, c := range systems {
			checkStateCanon(t, c, data)
		}
	})
}

// checkStateCanon asserts properties 3 and 4 for one system.
func checkStateCanon(t *testing.T, c *compiled, data []byte) {
	sys := c.sys
	fms := newMachines(c.progs)
	fq := make([][]expr.Value, len(sys.Routes))
	oracleErr := decodeGlobal(sys, fms, fq, data)

	bs := newByteState(c)
	if err := bs.decode(data); (err == nil) != (oracleErr == nil) {
		t.Fatalf("worker decode err = %v, decodeGlobal err = %v (data=%x)", err, oracleErr, data)
	}
	if oracleErr != nil {
		return
	}
	for ri, q := range bs.baseQ {
		for _, im := range q {
			if enc := im.val.AppendCanon(nil); !bytes.Equal(enc, im.enc) {
				t.Fatalf("route %d: interned value encodes to %x, entry holds %x", ri, enc, im.enc)
			}
		}
	}
	canon := encodeGlobal(sys, fms, fq, nil)
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			if err := bs.decode(data); err != nil {
				t.Fatalf("worker re-decode failed: %v", err)
			}
		}
		if got := bs.appendState(nil, bs.baseQ); !bytes.Equal(got, canon) {
			t.Fatalf("worker re-encoding (pass %d) = %x, encodeGlobal = %x", pass, got, canon)
		}
	}
	if err := decodeGlobal(sys, fms, fq, canon); err != nil {
		t.Fatalf("canonical state encoding does not decode: %v (canon=%x)", err, canon)
	}
	canon2 := encodeGlobal(sys, fms, fq, nil)
	if !bytes.Equal(canon2, canon) {
		t.Fatalf("state encoding not a fixed point: %x -> %x", canon, canon2)
	}
	if fingerprint(canon) != fingerprint(canon2) {
		t.Fatal("equal encodings, unequal fingerprints")
	}
}

// seedStates adds the encodings of the system's states up to three
// moves deep, found with the reference move semantics, plus truncated
// and bit-flipped copies of the root.
func seedStates(f *testing.F, c *compiled) {
	type node struct {
		ms     []*fsm.Machine
		queues [][]expr.Value
	}
	root := node{newMachines(c.progs), make([][]expr.Value, len(c.sys.Routes))}
	rootEnc := encodeGlobal(c.sys, root.ms, root.queues, nil)
	f.Add(rootEnc)
	f.Add(rootEnc[:len(rootEnc)/2])
	flip := bytes.Clone(rootEnc)
	flip[0] ^= 0xff
	f.Add(flip)

	deliverArgs := deliverArgsFor(c.sys)
	level := []node{root}
	for depth := 0; depth < 3; depth++ {
		var next []node
		for _, n := range level {
			for _, mv := range enabledMoves(c, n.ms, n.queues, nil) {
				ms := make([]*fsm.Machine, len(n.ms))
				for i, m := range n.ms {
					ms[i] = m.Clone()
				}
				queues := append([][]expr.Value(nil), n.queues...)
				if _, err := applyMove(c.sys, ms, queues, mv, deliverArgs, nil); err != nil {
					continue
				}
				f.Add(encodeGlobal(c.sys, ms, queues, nil))
				next = append(next, node{ms, queues})
			}
		}
		level = next
	}
}
