package verify

// Explore's worker-side state representation (DESIGN.md §12). A worker
// holds one global state as machines restored from the canonical
// encoding plus, per route, a queue of interned messages: each distinct
// in-flight message is decoded once per worker and route, and every
// queue slot thereafter is a pointer to that entry. Encoding a queue
// copies the entries' canonical bytes; decoding one slices the state's
// bytes and looks each message up. The encodings produced are
// byte-identical to encodeGlobal's, which FuzzStateCanon pins.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
)

// imsg is an interned in-flight message: its canonical encoding and the
// value decoded from it, which re-encodes to exactly enc. Entries are
// immutable once interned.
type imsg struct {
	enc []byte
	val expr.Value
}

// byteState is one worker's decoded view of a global state.
type byteState struct {
	c  *compiled
	ms []*fsm.Machine
	// baseQ holds the queues of the last decoded state.
	baseQ [][]*imsg
	// mOff[i] is where machine i's section starts in the last decoded
	// encoding and mOff[len(ms)] where the queues start; qOff[r] is where
	// route r's section starts and qOff[len(routes)] the encoding length.
	mOff, qOff []int
	// cache[r] interns route r's messages by canonical encoding.
	cache   []map[string]*imsg
	sortBuf []*imsg
}

func newByteState(c *compiled) *byteState {
	s := &byteState{
		c:     c,
		ms:    newMachines(c.progs),
		baseQ: make([][]*imsg, len(c.sys.Routes)),
		mOff:  make([]int, len(c.progs)+1),
		qOff:  make([]int, len(c.sys.Routes)+1),
		cache: make([]map[string]*imsg, len(c.sys.Routes)),
	}
	for ri := range s.cache {
		s.cache[ri] = make(map[string]*imsg)
	}
	return s
}

// decode restores the machines and baseQ from a state encoding and
// records the section offsets. It accepts exactly the encodings
// decodeGlobal accepts.
func (s *byteState) decode(enc []byte) error {
	rest := enc
	for i, m := range s.ms {
		s.mOff[i] = len(enc) - len(rest)
		r, err := m.RestoreState(rest)
		if err != nil {
			return fmt.Errorf("verify: corrupt state encoding: machine %d: %w", i, err)
		}
		rest = r
	}
	s.mOff[len(s.ms)] = len(enc) - len(rest)
	for ri := range s.baseQ {
		s.qOff[ri] = len(enc) - len(rest)
		n, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return fmt.Errorf("verify: corrupt state encoding: route %d count", ri)
		}
		rest = rest[sz:]
		q := s.baseQ[ri][:0]
		for i := uint64(0); i < n; i++ {
			im, r, err := s.internNext(ri, rest)
			if err != nil {
				return fmt.Errorf("verify: corrupt state encoding: route %d msg %d: %w", ri, i, err)
			}
			q = append(q, im)
			rest = r
		}
		s.baseQ[ri] = q
	}
	s.qOff[len(s.baseQ)] = len(enc) - len(rest)
	if len(rest) != 0 {
		return fmt.Errorf("verify: corrupt state encoding: %d trailing bytes", len(rest))
	}
	return nil
}

// internNext interns the message encoded at the front of data and
// returns the bytes after it. A state from the visited table hits the
// cache on the first lookup; anything else is decoded with
// expr.DecodeCanon, so acceptance is DecodeCanon's.
func (s *byteState) internNext(ri int, data []byte) (*imsg, []byte, error) {
	if l := expr.CanonLen(data); l > 0 {
		if im := s.cache[ri][string(data[:l])]; im != nil {
			return im, data[l:], nil
		}
	}
	v, rest, err := expr.DecodeCanon(data)
	if err != nil {
		return nil, nil, err
	}
	return s.intern(ri, v.AppendCanon(nil), v), rest, nil
}

// intern returns route ri's entry for the canonical encoding enc of v,
// creating it on first sight. v may alias caller-owned frames: the
// entry keeps a detached copy.
func (s *byteState) intern(ri int, enc []byte, v expr.Value) *imsg {
	if im := s.cache[ri][string(enc)]; im != nil {
		return im
	}
	im := &imsg{enc: bytes.Clone(enc), val: detach(s.c.shapes[ri], v)}
	s.cache[ri][string(im.enc)] = im
	return im
}

// detach returns a value that encodes like v and shares no frame with
// it. A message of shape's type whose fields all fit the shape becomes
// frame-backed in it, so the consumer's compiled guards take their slot
// fast path; other messages become map-backed copies.
func detach(shape *expr.MsgShape, v expr.Value) expr.Value {
	if v.Kind() != expr.KindMsg {
		return v
	}
	fields := v.MsgFields()
	if shape != nil && v.MsgName() == shape.Name() {
		f := expr.NewFrame(shape.NumFields())
		fits := true
		for name, fv := range fields {
			slot, ok := shape.Slot(name)
			if !ok || !fv.IsValid() {
				fits = false
				break
			}
			f.Set(slot, fv)
		}
		if fits {
			return expr.FrameMsg(shape, f)
		}
	}
	return expr.MsgView(v.MsgName(), fields)
}

// appendState appends the canonical encoding of the machines and the
// given queues, encoding every section afresh.
func (s *byteState) appendState(dst []byte, queues [][]*imsg) []byte {
	for _, m := range s.ms {
		dst = m.AppendState(dst)
	}
	for ri, q := range queues {
		dst = s.appendQueue(dst, ri, q)
	}
	return dst
}

// appendQueue appends route ri's section: the message count, then the
// messages' encodings, sorted on reordering routes.
func (s *byteState) appendQueue(dst []byte, ri int, q []*imsg) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(q)))
	if s.c.sys.Routes[ri].Reorder && len(q) > 1 {
		s.sortBuf = append(s.sortBuf[:0], q...)
		slices.SortFunc(s.sortBuf, func(a, b *imsg) int { return bytes.Compare(a.enc, b.enc) })
		q = s.sortBuf
	}
	for _, im := range q {
		dst = append(dst, im.enc...)
	}
	return dst
}

// minEncIndex returns the index of the first message with the smallest
// encoding: canonMinIndex's overrun victim rule, on bytes.
func minEncIndex(q []*imsg) int {
	min := 0
	for i := 1; i < len(q); i++ {
		if bytes.Compare(q[i].enc, q[min].enc) < 0 {
			min = i
		}
	}
	return min
}
