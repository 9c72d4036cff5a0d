package cell

import (
	"crypto/rand"
	"testing"
	"testing/quick"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	var c Cell
	c.CircID = 0xdeadbeef
	c.Cmd = MsmtData
	for i := range c.Payload {
		c.Payload[i] = byte(i)
	}
	buf := make([]byte, Size)
	n, err := c.Marshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != Size {
		t.Fatalf("marshal length: got %d want %d", n, Size)
	}
	var d Cell
	if err := d.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if d.CircID != c.CircID || d.Cmd != c.Cmd || d.Payload != c.Payload {
		t.Fatal("round trip mismatch")
	}
}

func TestMarshalShortBuffer(t *testing.T) {
	var c Cell
	if _, err := c.Marshal(make([]byte, Size-1)); err != ErrShortBuffer {
		t.Fatalf("want ErrShortBuffer, got %v", err)
	}
	if err := c.Unmarshal(make([]byte, 3)); err != ErrShortBuffer {
		t.Fatalf("want ErrShortBuffer, got %v", err)
	}
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
	if a.ForwardKey == a.BackwardKey {
		t.Fatal("forward and backward keys must differ")
	}
}

func TestCircuitCryptoRoundTrip(t *testing.T) {
	secret := []byte("shared-secret")
	measurer, err := NewCircuit(1, secret)
	if err != nil {
		t.Fatal(err)
	}
	target, err := NewCircuit(1, secret)
	if err != nil {
		t.Fatal(err)
	}

	var c Cell
	c.CircID = 1
	c.Cmd = MsmtData
	copy(c.Payload[:], []byte("hello measurement world"))
	orig := c.Payload

	// Measurer encrypts forward; target decrypts forward.
	measurer.Forward.Apply(&c)
	if c.Payload == orig {
		t.Fatal("forward encryption was a no-op")
	}
	target.Forward.Apply(&c)
	if c.Payload != orig {
		t.Fatal("target failed to decrypt forward cell")
	}

	// Target encrypts backward (echo); measurer decrypts backward.
	target.Backward.Apply(&c)
	measurer.Backward.Apply(&c)
	if c.Payload != orig {
		t.Fatal("echo round trip failed")
	}
}

func TestCryptoStateOrderMatters(t *testing.T) {
	secret := []byte("s")
	a, _ := NewCircuit(1, secret)
	b, _ := NewCircuit(1, secret)

	var c1, c2 Cell
	copy(c1.Payload[:], []byte("first"))
	copy(c2.Payload[:], []byte("second"))
	want2 := c2.Payload

	a.Forward.Apply(&c1)
	a.Forward.Apply(&c2)

	// Decrypting out of order must not recover the plaintext.
	b.Forward.Apply(&c2)
	if c2.Payload == want2 {
		t.Fatal("out-of-order decryption should corrupt the payload")
	}
}

func TestCryptoStateCount(t *testing.T) {
	circ, _ := NewCircuit(7, []byte("k"))
	var c Cell
	for i := 0; i < 5; i++ {
		circ.Forward.Apply(&c)
	}
	if circ.Forward.Processed() != 5 {
		t.Fatalf("processed: got %d want 5", circ.Forward.Processed())
	}
	if circ.Backward.Processed() != 0 {
		t.Fatalf("backward processed: got %d want 0", circ.Backward.Processed())
	}
}

func TestDigestDistinguishes(t *testing.T) {
	a := Digest([]byte("payload-a"))
	b := Digest([]byte("payload-b"))
	if a == b {
		t.Fatal("digest collision on trivially different payloads")
	}
	if a != Digest([]byte("payload-a")) {
		t.Fatal("digest not deterministic")
	}
}

// Property: marshal/unmarshal round-trips arbitrary cells.
func TestMarshalRoundTripQuick(t *testing.T) {
	f := func(circID uint32, cmd uint8, payload []byte) bool {
		var c Cell
		c.CircID = circID
		c.Cmd = Command(cmd)
		copy(c.Payload[:], payload)
		buf := make([]byte, Size)
		if _, err := c.Marshal(buf); err != nil {
			return false
		}
		var d Cell
		if err := d.Unmarshal(buf); err != nil {
			return false
		}
		return d == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: encrypt-then-decrypt recovers random payloads for matched
// stream positions (the core §4.1 relay operation).
func TestCircuitCryptoQuick(t *testing.T) {
	f := func(secret []byte, payloads [][]byte) bool {
		if len(secret) == 0 {
			secret = []byte{0}
		}
		m, err := NewCircuit(1, secret)
		if err != nil {
			return false
		}
		r, err := NewCircuit(1, secret)
		if err != nil {
			return false
		}
		for _, p := range payloads {
			var c Cell
			copy(c.Payload[:], p)
			orig := c.Payload
			m.Forward.Apply(&c)
			r.Forward.Apply(&c)
			r.Backward.Apply(&c)
			m.Backward.Apply(&c)
			if c.Payload != orig {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomPayloadEchoDetectsForgery(t *testing.T) {
	// A relay that echoes garbage instead of decrypt-and-return must be
	// detected by the digest check with overwhelming probability.
	secret := []byte("check")
	m, _ := NewCircuit(1, secret)
	r, _ := NewCircuit(1, secret)

	var c Cell
	if _, err := rand.Read(c.Payload[:]); err != nil {
		t.Fatal(err)
	}
	want := Digest(c.Payload[:])

	m.Forward.Apply(&c)
	r.Forward.Apply(&c) // honest decrypt
	honest := Digest(c.Payload[:])
	if honest != want {
		t.Fatal("honest relay failed digest check")
	}

	// Forged echo: relay returns the still-encrypted cell.
	var f Cell
	if _, err := rand.Read(f.Payload[:]); err != nil {
		t.Fatal(err)
	}
	m2, _ := NewCircuit(2, secret)
	wantForged := Digest(f.Payload[:])
	m2.Forward.Apply(&f) // encrypted, relay skips decryption
	if Digest(f.Payload[:]) == wantForged {
		t.Fatal("forged echo should fail digest check")
	}
}

// Zero-allocation guards: the per-cell operations of the measurement data
// plane — header encode/parse, in-place payload crypto, digest — must not
// touch the heap. These are the invariants the batched wire path depends
// on; a regression here shows up as GC pressure at line rate.

func TestApplyBytesZeroAllocs(t *testing.T) {
	circ, err := NewCircuit(1, []byte("alloc-guard"))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, Size)
	if n := testing.AllocsPerRun(200, func() {
		circ.Forward.ApplyBytes(PayloadOf(buf))
	}); n != 0 {
		t.Fatalf("ApplyBytes allocates %v per cell, want 0", n)
	}
}

func TestHeaderAndDigestZeroAllocs(t *testing.T) {
	buf := make([]byte, Size)
	var sink [8]byte
	if n := testing.AllocsPerRun(200, func() {
		PutHeader(buf, 1, MsmtData)
		if CommandOf(buf) != MsmtData || CircIDOf(buf) != 1 {
			t.Fatal("header round trip")
		}
		sink = Digest(PayloadOf(buf))
	}); n != 0 {
		t.Fatalf("header+digest path allocates %v per cell, want 0", n)
	}
	_ = sink
}

func TestMarshalUnmarshalZeroAllocs(t *testing.T) {
	var c, d Cell
	buf := make([]byte, Size)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := c.Marshal(buf); err != nil {
			t.Fatal(err)
		}
		if err := d.Unmarshal(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("marshal/unmarshal allocates %v per cell, want 0", n)
	}
}

func TestInPlaceAccessorsMatchMarshal(t *testing.T) {
	var c Cell
	c.CircID = 0x01020304
	c.Cmd = MsmtData
	for i := range c.Payload {
		c.Payload[i] = byte(i * 7)
	}
	buf := make([]byte, Size)
	if _, err := c.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	if CircIDOf(buf) != c.CircID || CommandOf(buf) != c.Cmd {
		t.Fatal("in-place header accessors disagree with Marshal")
	}
	if [PayloadSize]byte(PayloadOf(buf)) != c.Payload {
		t.Fatal("PayloadOf disagrees with Marshal")
	}

	var raw [Size]byte
	PutHeader(raw[:], c.CircID, c.Cmd)
	copy(PayloadOf(raw[:]), c.Payload[:])
	var d Cell
	if err := d.Unmarshal(raw[:]); err != nil {
		t.Fatal(err)
	}
	if d != c {
		t.Fatal("PutHeader+PayloadOf encoding disagrees with Unmarshal")
	}
}

func TestApplyBytesMatchesApply(t *testing.T) {
	secret := []byte("equivalence")
	a, _ := NewCircuit(1, secret)
	b, _ := NewCircuit(1, secret)

	var c Cell
	copy(c.Payload[:], []byte("same stream position"))
	raw := make([]byte, Size)
	copy(PayloadOf(raw), c.Payload[:])

	a.Forward.Apply(&c)
	b.Forward.ApplyBytes(PayloadOf(raw))
	if [PayloadSize]byte(PayloadOf(raw)) != c.Payload {
		t.Fatal("ApplyBytes and Apply diverge at the same stream position")
	}
	if a.Forward.Processed() != b.Forward.Processed() {
		t.Fatal("cell counters diverge")
	}
}

func BenchmarkCellCrypto(b *testing.B) {
	m, _ := NewCircuit(1, []byte("bench"))
	var c Cell
	b.SetBytes(Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward.Apply(&c)
	}
}

func BenchmarkMarshal(b *testing.B) {
	var c Cell
	buf := make([]byte, Size)
	b.SetBytes(Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Marshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCircuitCryptoBytes is the raw single-stream cell.Circuit
// crypto throughput on the in-place path, in cells/s: the work a target
// does for every measurement cell (§4.1), and the ceiling the data plane
// is bounded by.
func BenchmarkCircuitCryptoBytes(b *testing.B) {
	circ, _ := NewCircuit(1, []byte("bench"))
	buf := make([]byte, Size)
	b.SetBytes(Size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		circ.Forward.ApplyBytes(PayloadOf(buf))
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkBatchEncrypt measures the full sender-side per-batch cost:
// header writes plus in-place encryption of one batch.
func BenchmarkBatchEncrypt(b *testing.B) {
	circ, _ := NewCircuit(1, []byte("bench"))
	buf := make([]byte, BatchBytes)
	b.SetBytes(BatchBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < BatchBytes; off += Size {
			cb := buf[off : off+Size]
			PutHeader(cb, 1, MsmtData)
			circ.Forward.ApplyBytes(PayloadOf(cb))
		}
	}
}
