package security

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
)

// memoCapacity bounds how many successful verifications a CA's memo
// holds. A defended 60 s, 8-vehicle run broadcasts about 5000 distinct
// frames, but a frame is re-verified only by the receivers of the same
// broadcast, all within microseconds of simulated time, so the memo
// needs to span only the frames in flight, not the whole run. The
// bound is fixed: it is not an experiment input, so it can never
// change what a run computes.
const memoCapacity = 4096

// memoKey is the SHA-256 of (public key, 8-byte length of the signed
// bytes, signed bytes, signature). Ed25519 public keys are a fixed 32
// bytes, and the length prefix fixes where the signed bytes end, so
// the encoding is injective: equal keys mean equal Verify inputs.
type memoKey [sha256.Size]byte

// sigMemo remembers Ed25519 verifications that succeeded, so the N−1
// receivers of one broadcast, and every check of one certificate,
// pay for a single ed25519.Verify. ed25519.Verify is a pure function
// of its three inputs, so answering a repeat from the memo returns
// exactly what re-running it would: the memo changes a run's cost,
// never its bytes.
//
// Only successes are stored. A forged or tampered signature hashes to
// a key no success produced, so it always misses and re-runs
// ed25519.Verify, and floods of forgeries (the DoS and Sybil attacks)
// never enter the memo. The key is content, never a serial, sender or
// pointer, so impersonation cannot borrow another frame's verdict.
//
// When the memo is full it is cleared, keeping its map's storage: a
// deterministic eviction that bounds it at memoCapacity entries
// whatever the traffic. Frames in flight at that moment are verified
// once more each, a cost paid once per memoCapacity distinct
// signatures.
type sigMemo struct {
	seen map[memoKey]struct{} // nil until the first success
	in   []byte               // scratch: the hash input
	tbs  []byte               // scratch: a certificate's to-be-signed bytes
}

// verify reports whether sig is pub's signature on msg, and whether
// the answer came from the memo rather than from ed25519.Verify.
func (m *sigMemo) verify(pub ed25519.PublicKey, msg, sig []byte) (ok, hit bool) {
	m.in = append(m.in[:0], pub...)
	m.in = binary.LittleEndian.AppendUint64(m.in, uint64(len(msg)))
	m.in = append(m.in, msg...)
	m.in = append(m.in, sig...)
	k := memoKey(sha256.Sum256(m.in))
	if _, hit := m.seen[k]; hit {
		return true, true
	}
	if !ed25519.Verify(pub, msg, sig) {
		return false, false
	}
	if m.seen == nil {
		m.seen = make(map[memoKey]struct{})
	} else if len(m.seen) >= memoCapacity {
		clear(m.seen)
	}
	m.seen[k] = struct{}{}
	return true, false
}
