package cell

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"testing"
	"testing/quick"
)

// forwardState returns a fresh forward crypto state keyed from secret, as
// each end of a circuit derives it after the handshake.
func forwardState(tb testing.TB, secret []byte) *CryptoState {
	tb.Helper()
	km := DeriveKeys(secret)
	st, err := NewCryptoState(km.ForwardKey, km.ForwardIV)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

func TestCellSizeConstants(t *testing.T) {
	if Size != 514 {
		t.Fatalf("cell size: got %d want 514 (paper §2)", Size)
	}
	if PayloadSize != 509 {
		t.Fatalf("payload size: got %d want 509", PayloadSize)
	}
}

func TestCommandString(t *testing.T) {
	cases := map[Command]string{
		Padding:     "PADDING",
		Create:      "CREATE",
		Created:     "CREATED",
		Relay:       "RELAY",
		Destroy:     "DESTROY",
		MsmtCreate:  "MSMT_CREATE",
		MsmtCreated: "MSMT_CREATED",
		MsmtData:    "MSMT_DATA",
		MsmtBG:      "MSMT_BG",
		MsmtEnd:     "MSMT_END",
		MsmtUdp:     "MSMT_UDP",
		Command(99): "UNKNOWN(99)",
	}
	for cmd, want := range cases {
		if got := cmd.String(); got != want {
			t.Errorf("%d.String() = %q want %q", cmd, got, want)
		}
	}
}

func TestDeriveKeysDeterministic(t *testing.T) {
	a := DeriveKeys([]byte("secret"))
	b := DeriveKeys([]byte("secret"))
	if a != b {
		t.Fatal("key derivation not deterministic")
	}
	c := DeriveKeys([]byte("other"))
	if a == c {
		t.Fatal("different secrets produced identical keys")
	}
	if a.ForwardKey == a.ForwardIV {
		t.Fatal("key and IV must differ")
	}
}

// TestMarshalUnmarshalRoundTrip marshals a cell in place (PutHeader over a
// filled payload) and unmarshals it with the accessors.
func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	buf := make([]byte, Size)
	p := PayloadOf(buf)
	for i := range p {
		p[i] = byte(i)
	}
	want := bytes.Clone(p)
	PutHeader(buf, 0xdeadbeef, MsmtData)
	if CircIDOf(buf) != 0xdeadbeef || CommandOf(buf) != MsmtData {
		t.Fatalf("header round trip: circ %#x cmd %v", CircIDOf(buf), CommandOf(buf))
	}
	if !bytes.Equal(PayloadOf(buf), want) {
		t.Fatal("payload changed by the header write")
	}
}

// Property: PutHeader and the in-place accessors round-trip arbitrary
// headers and leave the payload untouched.
func TestMarshalRoundTripQuick(t *testing.T) {
	f := func(circID uint32, cmd uint8, payload []byte) bool {
		buf := make([]byte, Size)
		copy(PayloadOf(buf), payload)
		want := bytes.Clone(PayloadOf(buf))
		PutHeader(buf, circID, Command(cmd))
		return CircIDOf(buf) == circID && CommandOf(buf) == Command(cmd) &&
			bytes.Equal(PayloadOf(buf), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHeaderAccessorsWireLayout pins the accessors to Tor's link-protocol
// cell layout: a 4-byte big-endian circuit ID, a command byte, then the
// 509-byte payload.
func TestHeaderAccessorsWireLayout(t *testing.T) {
	buf := make([]byte, Size)
	PutHeader(buf, 0x01020304, MsmtData)
	if !bytes.Equal(buf[:5], []byte{1, 2, 3, 4, byte(MsmtData)}) {
		t.Fatalf("header bytes %x", buf[:5])
	}
	p := PayloadOf(buf)
	if len(p) != PayloadSize || &p[0] != &buf[5] {
		t.Fatal("PayloadOf must alias buf[5:Size]")
	}
	binary.BigEndian.PutUint32(buf, 0xdeadbeef)
	if CircIDOf(buf) != 0xdeadbeef {
		t.Fatal("CircIDOf disagrees with the wire layout")
	}
}

func TestCircuitCryptoRoundTrip(t *testing.T) {
	secret := []byte("shared-secret")
	measurer := forwardState(t, secret)
	target := forwardState(t, secret)

	buf := make([]byte, Size)
	p := PayloadOf(buf)
	copy(p, []byte("hello measurement world"))
	orig := bytes.Clone(p)

	// Measurer encrypts forward; target decrypts forward.
	measurer.ApplyBytes(p)
	if bytes.Equal(p, orig) {
		t.Fatal("forward encryption was a no-op")
	}
	target.ApplyBytes(p)
	if !bytes.Equal(p, orig) {
		t.Fatal("target failed to decrypt forward cell")
	}
}

func TestCryptoStateOrderMatters(t *testing.T) {
	secret := []byte("s")
	a := forwardState(t, secret)
	b := forwardState(t, secret)

	c1 := make([]byte, PayloadSize)
	c2 := make([]byte, PayloadSize)
	copy(c1, []byte("first"))
	copy(c2, []byte("second"))
	want2 := bytes.Clone(c2)

	a.ApplyBytes(c1)
	a.ApplyBytes(c2)

	// Decrypting out of order must not recover the plaintext.
	b.ApplyBytes(c2)
	if bytes.Equal(c2, want2) {
		t.Fatal("out-of-order decryption should corrupt the payload")
	}
}

func TestCryptoStateCount(t *testing.T) {
	st := forwardState(t, []byte("k"))
	p := make([]byte, PayloadSize)
	for i := 0; i < 5; i++ {
		st.ApplyBytes(p)
	}
	if st.Processed() != 5 {
		t.Fatalf("processed: got %d want 5", st.Processed())
	}
}

// Property: encrypt-then-decrypt recovers random payloads for matched
// stream positions (the core §4.1 relay operation).
func TestCircuitCryptoQuick(t *testing.T) {
	f := func(secret []byte, payloads [][]byte) bool {
		if len(secret) == 0 {
			secret = []byte{0}
		}
		m := forwardState(t, secret)
		r := forwardState(t, secret)
		for _, payload := range payloads {
			p := make([]byte, PayloadSize)
			copy(p, payload)
			orig := bytes.Clone(p)
			m.ApplyBytes(p)
			r.ApplyBytes(p)
			if !bytes.Equal(p, orig) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomPayloadEchoDetectsForgery checks the measurer's echo check
// end to end on one cell: a target that decrypts the zero-payload cell
// echoes the forward keystream and passes, while one that returns the
// payload untouched or returns random bytes fails.
func TestRandomPayloadEchoDetectsForgery(t *testing.T) {
	km := DeriveKeys([]byte("check"))
	ks, err := NewKeystream(km.ForwardKey, km.ForwardIV)
	if err != nil {
		t.Fatal(err)
	}
	target := forwardState(t, []byte("check"))

	honest := make([]byte, PayloadSize)
	target.ApplyBytes(honest)
	if !ks.VerifyAt(honest, 0) {
		t.Fatal("honest echo failed the check")
	}
	untouched := make([]byte, PayloadSize)
	if ks.VerifyAt(untouched, PayloadSize) {
		t.Fatal("an echo that skipped the decrypt passed the check")
	}
	forged := make([]byte, PayloadSize)
	if _, err := rand.Read(forged); err != nil {
		t.Fatal(err)
	}
	if ks.VerifyAt(forged, PayloadSize) {
		t.Fatal("a random echo passed the check")
	}
}

// Zero-allocation guards: the per-cell operations of the measurement data
// plane — header encode/parse and in-place payload crypto — must not
// touch the heap. These are the invariants the batched wire path depends
// on; a regression here shows up as GC pressure at line rate.

func TestApplyBytesZeroAllocs(t *testing.T) {
	st := forwardState(t, []byte("alloc-guard"))
	buf := make([]byte, Size)
	if n := testing.AllocsPerRun(200, func() {
		st.ApplyBytes(PayloadOf(buf))
	}); n != 0 {
		t.Fatalf("ApplyBytes allocates %v per cell, want 0", n)
	}
}

func TestMarshalUnmarshalZeroAllocs(t *testing.T) {
	buf := make([]byte, Size)
	if n := testing.AllocsPerRun(200, func() {
		PutHeader(buf, 1, MsmtData)
		if CommandOf(buf) != MsmtData || CircIDOf(buf) != 1 || len(PayloadOf(buf)) != PayloadSize {
			t.Fatal("header round trip")
		}
	}); n != 0 {
		t.Fatalf("header path allocates %v per cell, want 0", n)
	}
}

// TestHeaderAndDigestZeroAllocs pins the measurer's per-echo work: parse
// the header, then check the payload against the keystream (VerifyAt is
// the echo check that replaced the payload digest).
func TestHeaderAndDigestZeroAllocs(t *testing.T) {
	km := DeriveKeys([]byte("alloc-guard"))
	ks, err := NewKeystream(km.ForwardKey, km.ForwardIV)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, Size)
	PutHeader(buf, 1, MsmtData)
	forwardState(t, []byte("alloc-guard")).ApplyBytes(PayloadOf(buf))
	if n := testing.AllocsPerRun(200, func() {
		if CommandOf(buf) != MsmtData || CircIDOf(buf) != 1 {
			t.Fatal("header round trip")
		}
		if !ks.VerifyAt(PayloadOf(buf), 0) {
			t.Fatal("honest echo failed the check")
		}
	}); n != 0 {
		t.Fatalf("header+echo check allocates %v per cell, want 0", n)
	}
}

// BenchmarkCircuitCryptoBytes is the raw single-stream circuit crypto
// throughput on the in-place path, in cells/s: the work a target does for
// every measurement cell (§4.1), and the ceiling the data plane is
// bounded by.
func BenchmarkCircuitCryptoBytes(b *testing.B) {
	st := forwardState(b, []byte("bench"))
	buf := make([]byte, Size)
	b.SetBytes(Size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ApplyBytes(PayloadOf(buf))
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkBatchEncrypt measures the full sender-side per-batch cost:
// header writes plus in-place encryption of one batch.
func BenchmarkBatchEncrypt(b *testing.B) {
	st := forwardState(b, []byte("bench"))
	buf := make([]byte, BatchBytes)
	b.SetBytes(BatchBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < BatchBytes; off += Size {
			cb := buf[off : off+Size]
			PutHeader(cb, 1, MsmtData)
			st.ApplyBytes(PayloadOf(cb))
		}
	}
}
