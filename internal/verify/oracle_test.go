package verify

// The value-queue reference codec for the canonical global-state
// encoding (encode.go): machines plus queues of expr values, encoded
// value by value. FuzzStateCanon pins Explore's byteState against it.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
)

// encodeGlobal appends the canonical encoding of (machines, queues).
func encodeGlobal(sys *System, ms []*fsm.Machine, queues [][]expr.Value, dst []byte) []byte {
	for _, m := range ms {
		dst = m.AppendState(dst)
	}
	return appendQueues(sys, dst, queues)
}

func appendQueues(sys *System, dst []byte, queues [][]expr.Value) []byte {
	for ri, q := range queues {
		dst = binary.AppendUvarint(dst, uint64(len(q)))
		if sys.Routes[ri].Reorder && len(q) > 1 {
			elems := make([][]byte, len(q))
			for i, v := range q {
				elems[i] = v.AppendCanon(nil)
			}
			sort.Slice(elems, func(a, b int) bool { return string(elems[a]) < string(elems[b]) })
			for _, e := range elems {
				dst = append(dst, e...)
			}
			continue
		}
		for _, v := range q {
			dst = v.AppendCanon(dst)
		}
	}
	return dst
}

// decodeGlobal restores machines and queues from an encoding produced by
// encodeGlobal. Queue slices are appended into queues[i][:0] to reuse
// worker buffers; the restored order is the canonical one, which for
// reordering routes may differ from the order messages were enqueued in
// (semantically equivalent: such queues are multisets).
func decodeGlobal(sys *System, ms []*fsm.Machine, queues [][]expr.Value, data []byte) error {
	rest, err := restoreMachines(ms, data)
	if err != nil {
		return err
	}
	for ri := range queues {
		n, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return fmt.Errorf("verify: corrupt state encoding: route %d count", ri)
		}
		rest = rest[sz:]
		q := queues[ri][:0]
		for i := uint64(0); i < n; i++ {
			v, r2, err := expr.DecodeCanon(rest)
			if err != nil {
				return fmt.Errorf("verify: corrupt state encoding: route %d msg %d: %w", ri, i, err)
			}
			q = append(q, v)
			rest = r2
		}
		queues[ri] = q
	}
	if len(rest) != 0 {
		return fmt.Errorf("verify: corrupt state encoding: %d trailing bytes", len(rest))
	}
	return nil
}

// restoreMachines restores only the machine section of an encoding,
// returning the remaining (queue) bytes.
func restoreMachines(ms []*fsm.Machine, data []byte) ([]byte, error) {
	for i, m := range ms {
		rest, err := m.RestoreState(data)
		if err != nil {
			return nil, fmt.Errorf("verify: corrupt state encoding: machine %d: %w", i, err)
		}
		data = rest
	}
	return data, nil
}
