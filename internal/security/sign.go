package security

import (
	"errors"
	"fmt"

	"platoonsec/internal/message"
	"platoonsec/internal/sim"
)

// Errors returned by envelope verification.
var (
	ErrUnsigned       = errors.New("security: envelope unsigned")
	ErrBadSignature   = errors.New("security: envelope signature invalid")
	ErrSenderMismatch = errors.New("security: claimed sender does not match certificate")
	ErrReplay         = errors.New("security: replayed or stale message")
)

// Signer wraps outgoing payloads in signed envelopes for one identity.
type Signer struct {
	id *Identity
}

// NewSigner returns a signer for the identity.
func NewSigner(id *Identity) *Signer { return &Signer{id: id} }

// Seal wraps payload in an envelope signed by the identity, claiming the
// certificate's vehicle ID as sender.
//
//platoonvet:hotpath -- runs per transmitted frame on signing agents
func (s *Signer) Seal(payload []byte) *message.Envelope {
	//platoonvet:alloc-ok envelope ownership passes to the MAC send path; per-frame envelope identity is the protocol model
	e := &message.Envelope{
		SenderID:   s.id.Cert.VehicleID,
		CertSerial: s.id.Cert.Serial,
		Payload:    payload,
	}
	e.Sig = s.id.Sign(e.SignedBytes())
	return e
}

// SealAs wraps payload claiming an arbitrary sender ID — the
// impersonation primitive. The signature will only verify if the
// certificate's vehicle ID happens to match, so against a verifying
// receiver this models the attack *attempt*.
//
//platoonvet:hotpath -- runs per spoofed frame in attack scenarios
func (s *Signer) SealAs(senderID uint32, payload []byte) *message.Envelope {
	//platoonvet:alloc-ok envelope ownership passes to the MAC send path; per-frame envelope identity is the protocol model
	e := &message.Envelope{
		SenderID:   senderID,
		CertSerial: s.id.Cert.Serial,
		Payload:    payload,
	}
	e.Sig = s.id.Sign(e.SignedBytes())
	return e
}

// Verifier validates incoming envelopes against the CA and a replay
// guard. The zero value is not usable; construct with NewVerifier.
// A Verifier is not safe for concurrent use (sigBuf is per-frame
// scratch, and it shares its CA's memo and counters); each simulated
// world builds its own.
type Verifier struct {
	ca     *CA
	replay *ReplayGuard
	sigBuf []byte // scratch for the signed-bytes image of each frame
}

// NewVerifier returns a verifier trusting ca. replay may be nil to skip
// freshness checking (the paper's baseline "keys without timestamps"
// configuration, which replay attacks then beat). The verifier shares
// ca's verification memo and counts its work in ca.Counters.
func NewVerifier(ca *CA, replay *ReplayGuard) *Verifier {
	return &Verifier{ca: ca, replay: replay}
}

// Verify checks an envelope at time now: certificate chain, signature,
// sender binding, and (if a replay guard is installed) freshness of the
// embedded timestamp. It returns the verified certificate.
//
// Both signature checks consult the CA's memo of successful
// verifications, so the receivers of one broadcast run ed25519.Verify
// once between them. Everything else runs on every call: a replayed
// frame hits the memo and is still rejected by the replay guard.
//
//platoonvet:hotpath -- runs per received frame on verifying agents
//platoonvet:sanitizer -- certificate chain + signature + sender binding + freshness: the trust boundary of §VI-A
func (v *Verifier) Verify(e *message.Envelope, now sim.Time) (*Certificate, error) {
	if len(e.Sig) == 0 {
		v.ca.counts.Reject[RejectBadSig]++
		return nil, ErrUnsigned
	}
	cert, err := v.ca.Lookup(e.CertSerial)
	if err != nil {
		v.ca.counts.Reject[RejectBadCert]++
		return nil, err
	}
	if err := v.ca.Verify(cert, now); err != nil {
		return nil, err
	}
	if cert.VehicleID != e.SenderID {
		v.ca.counts.Reject[RejectSenderMismatch]++
		//platoonvet:alloc-ok error path: sender mismatch occurs only under impersonation attack
		return nil, fmt.Errorf("%w: claimed %d, cert %d", ErrSenderMismatch, e.SenderID, cert.VehicleID)
	}
	v.sigBuf = e.AppendSignedBytes(v.sigBuf[:0])
	ok, hit := v.ca.memo.verify(cert.PublicKey, v.sigBuf, e.Sig)
	if hit {
		v.ca.counts.VerifyMemoHit++
	} else {
		v.ca.counts.Verify++
	}
	if !ok {
		v.ca.counts.Reject[RejectBadSig]++
		return nil, ErrBadSignature
	}
	if v.replay != nil {
		ts, seq, err := extractFreshness(e.Payload)
		if err == nil {
			err = v.replay.Check(e.SenderID, seq, ts, now)
		}
		if err != nil {
			v.ca.counts.Reject[RejectReplay]++
			return nil, err
		}
	}
	return cert, nil
}

// extractFreshness pulls (timestamp, seq) out of any known payload
// kind. The wire-peeking fast path avoids the per-frame unmarshal
// allocations the full decoders would make.
func extractFreshness(payload []byte) (sim.Time, uint32, error) {
	ts, seq, err := message.PeekFreshness(payload)
	if err == nil {
		return sim.Time(ts), seq, nil
	}
	return extractFreshnessSlow(payload)
}

// extractFreshnessSlow is the original decoder-backed extraction; it
// now runs only on malformed payloads, where its wrapped errors carry
// the diagnostic detail.
func extractFreshnessSlow(payload []byte) (sim.Time, uint32, error) {
	kind, err := message.PeekKind(payload)
	if err != nil {
		return 0, 0, err
	}
	switch kind {
	case message.KindBeacon:
		b, err := message.UnmarshalBeacon(payload)
		if err != nil {
			return 0, 0, err
		}
		return sim.Time(b.TimestampN), b.Seq, nil
	case message.KindManeuver:
		m, err := message.UnmarshalManeuver(payload)
		if err != nil {
			return 0, 0, err
		}
		return sim.Time(m.TimestampN), m.Seq, nil
	case message.KindMembership:
		m, err := message.UnmarshalMembership(payload)
		if err != nil {
			return 0, 0, err
		}
		return sim.Time(m.TimestampN), m.Seq, nil
	case message.KindKeyRequest:
		k, err := message.UnmarshalKeyRequest(payload)
		if err != nil {
			return 0, 0, err
		}
		return sim.Time(k.TimestampN), uint32(k.Nonce), nil
	case message.KindKeyResponse:
		k, err := message.UnmarshalKeyResponse(payload)
		if err != nil {
			return 0, 0, err
		}
		return sim.Time(k.TimestampN), uint32(k.Nonce), nil
	case message.KindContextProof:
		c, err := message.UnmarshalContextProof(payload)
		if err != nil {
			return 0, 0, err
		}
		return sim.Time(c.TimestampN), c.Seq, nil
	default:
		//platoonvet:alloc-ok error path: unknown kinds never occur on conforming traffic
		return 0, 0, fmt.Errorf("security: cannot extract freshness from %v", kind)
	}
}
