package security

import (
	"errors"
	"testing"

	"platoonsec/internal/message"
	"platoonsec/internal/sim"
)

// memoFixture is a CA with one issued identity and a verifier trusting
// it, without a replay guard so a frame can be re-verified.
func memoFixture(t *testing.T) (*CA, *Identity, *Verifier) {
	t.Helper()
	ca, rng := newTestCA(t)
	id, err := ca.Issue(7, 0, 100*sim.Second, rng)
	if err != nil {
		t.Fatal(err)
	}
	return ca, id, NewVerifier(ca, nil)
}

func TestMemoRepeatIsHit(t *testing.T) {
	ca, id, v := memoFixture(t)
	env := NewSigner(id).Seal(beaconPayload(7, 1, 0))
	for i := 0; i < 3; i++ {
		if _, err := v.Verify(env, sim.Millisecond); err != nil {
			t.Fatalf("verify %d: %v", i, err)
		}
	}
	c := ca.Counters()
	// One certificate and one frame signature run ed25519.Verify; the
	// two repeats of each come from the memo.
	if c.Verify != 2 || c.VerifyMemoHit != 2 || c.CertMemoHit != 2 {
		t.Fatalf("counters = %+v, want Verify 2, VerifyMemoHit 2, CertMemoHit 2", c)
	}
	if c.Sign != 2 {
		t.Fatalf("Sign = %d, want 2 (one certificate, one envelope)", c.Sign)
	}
}

func TestMemoForgedSignatureOverMemoisedFrame(t *testing.T) {
	ca, id, v := memoFixture(t)
	env := NewSigner(id).Seal(beaconPayload(7, 1, 0))
	if _, err := v.Verify(env, sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Same serial, sender and payload; only the signature differs.
	forged := *env
	forged.Sig = append([]byte(nil), env.Sig...)
	forged.Sig[10] ^= 0x01
	if _, err := v.Verify(&forged, sim.Millisecond); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("forged signature: %v", err)
	}
	// A signature by another key over the same bytes also misses.
	other, _ := ca.Issue(66, 0, 100*sim.Second, sim.NewStream(2, "other"))
	forged.Sig = other.Sign(env.SignedBytes())
	if _, err := v.Verify(&forged, sim.Millisecond); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("signature by another key: %v", err)
	}
	if c := ca.Counters(); c.Reject[RejectBadSig] != 2 || c.VerifyMemoHit != 0 {
		t.Fatalf("counters = %+v, want 2 bad_sig rejects and no memo hit", c)
	}
}

func TestMemoTamperedCertCopy(t *testing.T) {
	ca, id, _ := memoFixture(t)
	if err := ca.Verify(id.Cert, sim.Second); err != nil {
		t.Fatal(err)
	}
	badSig := *id.Cert
	badSig.CASig = append([]byte(nil), id.Cert.CASig...)
	badSig.CASig[0] ^= 0x80
	if err := ca.Verify(&badSig, sim.Second); !errors.Is(err, ErrBadCertSignature) {
		t.Fatalf("tampered CASig: %v", err)
	}
	// The memoised CASig on an extended validity window must not verify.
	extended := *id.Cert
	extended.NotAfter = 1 << 62
	if err := ca.Verify(&extended, sim.Second); !errors.Is(err, ErrBadCertSignature) {
		t.Fatalf("extended window under the original CASig: %v", err)
	}
	if err := ca.Verify(id.Cert, sim.Second); err != nil {
		t.Fatalf("original after tampered copies: %v", err)
	}
}

func TestMemoExpiryAndRevocationAfterHit(t *testing.T) {
	ca, id, v := memoFixture(t)
	env := NewSigner(id).Seal(beaconPayload(7, 1, 0))
	for i := 0; i < 2; i++ {
		if _, err := v.Verify(env, sim.Second); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.Verify(env, 101*sim.Second); !errors.Is(err, ErrCertExpired) {
		t.Fatalf("after expiry: %v", err)
	}
	ca.Revoke(id.Cert.Serial)
	if _, err := v.Verify(env, sim.Second); !errors.Is(err, ErrCertRevoked) {
		t.Fatalf("after revocation: %v", err)
	}
	if err := ca.Verify(id.Cert, sim.Second); !errors.Is(err, ErrCertRevoked) {
		t.Fatalf("certificate after revocation: %v", err)
	}
	c := ca.Counters()
	if c.Reject[RejectExpired] != 1 || c.Reject[RejectRevoked] != 2 {
		t.Fatalf("counters = %+v, want 1 expired and 2 revoked rejects", c)
	}
}

func TestMemoReplayStillRejected(t *testing.T) {
	ca, rng := newTestCA(t)
	id, _ := ca.Issue(7, 0, 100*sim.Second, rng)
	v := NewVerifier(ca, NewReplayGuard(sim.Second))
	env := NewSigner(id).Seal(beaconPayload(7, 1, 10*sim.Second))
	if _, err := v.Verify(env, 10*sim.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Verify(env, 10*sim.Second+sim.Millisecond); !errors.Is(err, ErrReplay) {
		t.Fatalf("replayed frame: %v", err)
	}
	if c := ca.Counters(); c.VerifyMemoHit != 1 || c.Reject[RejectReplay] != 1 {
		t.Fatalf("counters = %+v, want the replay to hit the memo and be rejected", c)
	}
}

func TestMemoBoundedUnderFlood(t *testing.T) {
	if testing.Short() {
		t.Skip("signs and verifies more frames than the memo holds")
	}
	ca, id, v := memoFixture(t)
	signer := NewSigner(id)
	const extra = 100
	envs := make([]*message.Envelope, memoCapacity+extra)
	for i := range envs {
		envs[i] = signer.Seal(beaconPayload(7, uint32(i+1), 0))
		if _, err := v.Verify(envs[i], sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if n := len(ca.memo.seen); n > memoCapacity {
			t.Fatalf("memo holds %d entries after %d frames, cap %d", n, i+1, memoCapacity)
		}
	}
	// The oldest frames were evicted, the newest are still held.
	before := ca.Counters()
	if _, err := v.Verify(envs[0], sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Verify(envs[len(envs)-1], sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	after := ca.Counters()
	if after.VerifyMemoHit-before.VerifyMemoHit != 1 {
		t.Fatalf("oldest frame should miss and newest hit: before %+v after %+v", before, after)
	}
}

func TestMemoForgedFramesNeverInsert(t *testing.T) {
	ca, id, v := memoFixture(t)
	env := NewSigner(id).Seal(beaconPayload(7, 1, 0))
	if _, err := v.Verify(env, sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	held := len(ca.memo.seen)
	for i := 0; i < 50; i++ {
		forged := &message.Envelope{SenderID: 7, CertSerial: id.Cert.Serial,
			Payload: beaconPayload(7, uint32(i+2), 0), Sig: make([]byte, 64)}
		forged.Sig[0] = byte(i)
		if _, err := v.Verify(forged, sim.Millisecond); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("forged frame %d: %v", i, err)
		}
	}
	if n := len(ca.memo.seen); n != held {
		t.Fatalf("memo grew from %d to %d entries on forged frames", held, n)
	}
	// One certificate and 51 frame signatures ran ed25519.Verify.
	if c := ca.Counters(); c.Reject[RejectBadSig] != 50 || c.Verify != 52 {
		t.Fatalf("counters = %+v, want every forgery to run ed25519.Verify and be rejected", c)
	}
}

func TestMemoAllocatedLazily(t *testing.T) {
	ca, _ := newTestCA(t)
	if ca.memo.seen != nil {
		t.Fatal("a fresh CA allocated its memo before any verification")
	}
}

// TestVerifyMemoHitZeroAlloc pins the hit path: a frame another
// receiver already verified costs a hash and a map lookup, no
// allocation.
func TestVerifyMemoHitZeroAlloc(t *testing.T) {
	_, id, v := memoFixture(t)
	env := NewSigner(id).Seal(beaconPayload(7, 1, 0))
	if _, err := v.Verify(env, sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	var err error
	if allocs := testing.AllocsPerRun(200, func() { _, err = v.Verify(env, sim.Millisecond) }); allocs != 0 {
		t.Errorf("Verify memo hit: %v allocs/op, want 0", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
}
