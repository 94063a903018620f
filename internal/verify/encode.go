package verify

// Canonical global-state encoding (DESIGN.md §12). A global state is the
// concatenation of every machine's fsm.AppendState encoding followed by
// every route's queue: a uvarint message count, then each message's
// expr canonical encoding. All components are self-delimiting, so the
// concatenation is injective — equal bytes iff equal global state.
//
// Reordering routes are semantically multisets, so their elements are
// emitted in sorted byte order: permutations of the same in-flight
// messages collapse into one canonical state.
//
// Explore encodes and decodes states with byteState (bytestate.go); the
// value-queue reference codec, encodeGlobal/decodeGlobal, lives with the
// tests that pin the two against each other.

// fingerprint hashes a canonical state encoding to 64 bits: FNV-1a with
// a splitmix64 finalizer so both the shard selector (high bits) and the
// open-addressing probe start (low bits) are well mixed. Fingerprint
// collisions are survivable — the visited table compares full encodings
// on a fingerprint match.
func fingerprint(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
