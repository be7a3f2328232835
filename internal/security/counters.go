package security

import "platoonsec/internal/obs"

// RejectReason classifies why a certificate or envelope failed
// verification.
type RejectReason uint8

// Reject reasons, one per way a frame can fail the trust boundary.
const (
	RejectBadSig         RejectReason = iota // unsigned, or the signature does not verify
	RejectBadCert                            // unknown serial, or the CA signature does not verify
	RejectExpired                            // certificate outside its validity window
	RejectRevoked                            // certificate on the revocation list
	RejectSenderMismatch                     // claimed sender is not the certificate's vehicle
	RejectReplay                             // failed the freshness check
	numRejectReasons
)

func (r RejectReason) String() string {
	switch r {
	case RejectBadSig:
		return "bad_sig"
	case RejectBadCert:
		return "bad_cert"
	case RejectExpired:
		return "expired"
	case RejectRevoked:
		return "revoked"
	case RejectSenderMismatch:
		return "sender_mismatch"
	case RejectReplay:
		return "replay"
	default:
		return "unknown"
	}
}

// Counters is the security layer's deterministic work count: what a
// run spent on Ed25519 and what the verification memo saved it. They
// are plain integers, so counting costs an increment whether or not
// observability is on; Publish copies them into an obs registry.
type Counters struct {
	// Sign counts Ed25519 signatures made: certificates issued and
	// envelopes sealed.
	Sign uint64
	// Verify counts ed25519.Verify calls actually run, for certificate
	// and envelope signatures alike.
	Verify uint64
	// VerifyMemoHit counts envelope signatures answered by the memo.
	VerifyMemoHit uint64
	// CertMemoHit counts certificate signatures answered by the memo.
	CertMemoHit uint64
	// Reject counts failed verifications by reason.
	Reject [numRejectReasons]uint64
}

// Publish adds the counts to reg as security.sign, security.verify,
// security.verify_memo_hit, security.cert_memo_hit and
// security.reject.<reason>.
func (c Counters) Publish(reg *obs.Registry) {
	reg.Counter("security.sign").Add(c.Sign)
	reg.Counter("security.verify").Add(c.Verify)
	reg.Counter("security.verify_memo_hit").Add(c.VerifyMemoHit)
	reg.Counter("security.cert_memo_hit").Add(c.CertMemoHit)
	for i, n := range c.Reject {
		reg.Counter("security.reject." + RejectReason(i).String()).Add(n)
	}
}
