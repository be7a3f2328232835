package security

import (
	"crypto/ed25519"
	"fmt"
	"testing"

	"platoonsec/internal/message"
	"platoonsec/internal/sim"
)

// referenceVerify is Verifier.Verify without the memo: every
// certificate and envelope signature goes straight to ed25519.Verify.
// FuzzVerify holds the memoised verifier to it.
func referenceVerify(ca *CA, replay *ReplayGuard, e *message.Envelope, now sim.Time) (*Certificate, error) {
	if len(e.Sig) == 0 {
		return nil, ErrUnsigned
	}
	cert, err := ca.Lookup(e.CertSerial)
	if err != nil {
		return nil, err
	}
	if !ed25519.Verify(ca.pub, cert.appendTBS(nil), cert.CASig) {
		return nil, ErrBadCertSignature
	}
	if now < cert.NotBefore || now > cert.NotAfter {
		return nil, fmt.Errorf("%w: now=%v window=[%v,%v]", ErrCertExpired, now, cert.NotBefore, cert.NotAfter)
	}
	if ca.revoked[cert.Serial] {
		return nil, fmt.Errorf("%w: serial %d", ErrCertRevoked, cert.Serial)
	}
	if cert.VehicleID != e.SenderID {
		return nil, fmt.Errorf("%w: claimed %d, cert %d", ErrSenderMismatch, e.SenderID, cert.VehicleID)
	}
	if !ed25519.Verify(cert.PublicKey, e.SignedBytes(), e.Sig) {
		return nil, ErrBadSignature
	}
	if replay == nil {
		return cert, nil
	}
	ts, seq, err := extractFreshness(e.Payload)
	if err != nil {
		return nil, err
	}
	if err := replay.Check(e.SenderID, seq, ts, now); err != nil {
		return nil, err
	}
	return cert, nil
}

// xorInto XORs mask into b, extending b with the mask's tail when the
// mask is longer, so the fuzzer reaches both corrupted and resized
// fields.
func xorInto(b, mask []byte) []byte {
	out := append([]byte(nil), b...)
	for i, m := range mask {
		if i < len(out) {
			out[i] ^= m
		} else {
			out = append(out, m)
		}
	}
	return out
}

// FuzzVerify is a differential check of the verification memo: after
// both have accepted the same valid frames, a memoised Verifier and
// the memo-free referenceVerify must agree on every mutation of a
// valid sealed envelope's signature, payload, serial and sender —
// accept or reject, and the error text. With guarded false neither
// runs a replay guard, so an unmutated frame is accepted from the memo.
func FuzzVerify(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint32(0), uint32(0), true)
	f.Add([]byte{}, []byte{}, uint32(0), uint32(0), false)
	f.Add([]byte{0, 0, 1}, []byte{}, uint32(0), uint32(0), true)
	f.Add(make([]byte, 65), []byte{}, uint32(0), uint32(0), true)
	f.Add([]byte{}, append(make([]byte, 25), 0xff), uint32(0), uint32(0), true) // a position byte flipped
	f.Add([]byte{}, append(make([]byte, 128), 1), uint32(0), uint32(0), true)   // payload extended
	f.Add([]byte{}, []byte{}, uint32(3), uint32(0), true)                       // serial 1 → 2: the other vehicle's certificate
	f.Add([]byte{}, []byte{}, uint32(0x40), uint32(0), true)                    // unknown serial
	f.Add([]byte{}, []byte{}, uint32(0), uint32(15), true)                      // sender 7 → 8: impersonation
	f.Add([]byte{}, []byte{}, uint32(3), uint32(15), true)                      // serial and sender both moved to vehicle 8
	f.Fuzz(func(t *testing.T, sigMask, payloadMask []byte, serialXor, senderXor uint32, guarded bool) {
		rng := sim.NewStream(1, "fuzz-verify")
		ca, err := NewCA(rng)
		if err != nil {
			t.Fatal(err)
		}
		alice, _ := ca.Issue(7, 0, 100*sim.Second, rng)
		bob, _ := ca.Issue(8, 0, 100*sim.Second, rng)
		var memoGuard, refGuard *ReplayGuard
		if guarded {
			memoGuard, refGuard = NewReplayGuard(sim.Second), NewReplayGuard(sim.Second)
		}
		memo := NewVerifier(ca, memoGuard)
		now := 10 * sim.Second

		// Warm the memo with both identities' certificates and one
		// frame each, accepted by both verifiers.
		valid := NewSigner(alice).Seal(beaconPayload(7, 5, now))
		for _, e := range []*message.Envelope{valid, NewSigner(bob).Seal(beaconPayload(8, 5, now))} {
			if _, err := memo.Verify(e, now); err != nil {
				t.Fatalf("warm-up (memo): %v", err)
			}
			if _, err := referenceVerify(ca, refGuard, e, now); err != nil {
				t.Fatalf("warm-up (reference): %v", err)
			}
		}

		mut := &message.Envelope{
			SenderID:   valid.SenderID ^ senderXor,
			CertSerial: valid.CertSerial ^ serialXor,
			Payload:    xorInto(valid.Payload, payloadMask),
			Sig:        xorInto(valid.Sig, sigMask),
		}
		later := now + sim.Millisecond
		gotCert, gotErr := memo.Verify(mut, later)
		wantCert, wantErr := referenceVerify(ca, refGuard, mut, later)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("memo verifier err = %v, reference err = %v", gotErr, wantErr)
		}
		if gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("memo verifier err = %q, reference err = %q", gotErr, wantErr)
		}
		if gotCert != wantCert {
			t.Fatalf("memo verifier cert = %v, reference cert = %v", gotCert, wantCert)
		}
	})
}
