package cell

import (
	"bytes"
	"math/rand"
	"testing"
)

// keystreamFixture returns matched sequential and random-access views of
// one forward keystream.
func keystreamFixture(t *testing.T) (*CryptoState, *Keystream) {
	t.Helper()
	km := DeriveKeys([]byte("ctr-equivalence"))
	seq, err := NewCryptoState(km.ForwardKey, km.ForwardIV)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := NewKeystream(km.ForwardKey, km.ForwardIV)
	if err != nil {
		t.Fatal(err)
	}
	return seq, ra
}

// TestKeystreamMatchesSequentialStream pins the core equivalence: XORAt
// over zeros at offset k·PayloadSize reproduces exactly what the
// sequential CryptoState produces for cell k — the contract the echo
// verification path depends on.
func TestKeystreamMatchesSequentialStream(t *testing.T) {
	seq, ra := keystreamFixture(t)
	const cells = 300
	want := make([][]byte, cells)
	for i := range want {
		buf := make([]byte, PayloadSize)
		seq.ApplyBytes(buf)
		want[i] = buf
	}
	// Random access in arbitrary order, including repeats.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 1000; trial++ {
		k := rng.Intn(cells)
		got := make([]byte, PayloadSize)
		ra.XORAt(got, uint64(k)*PayloadSize)
		if !bytes.Equal(got, want[k]) {
			t.Fatalf("cell %d: random-access keystream diverges from sequential stream", k)
		}
		if !ra.VerifyAt(want[k], uint64(k)*PayloadSize) {
			t.Fatalf("cell %d: VerifyAt rejects the true keystream", k)
		}
	}
}

// TestKeystreamVerifyRejectsCorruption flips single bytes at random
// positions and checks VerifyAt notices every one.
func TestKeystreamVerifyRejectsCorruption(t *testing.T) {
	_, ra := keystreamFixture(t)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		off := uint64(rng.Intn(1 << 20))
		buf := make([]byte, PayloadSize)
		ra.XORAt(buf, off)
		i := rng.Intn(len(buf))
		buf[i] ^= 1 << uint(rng.Intn(8))
		if ra.VerifyAt(buf, off) {
			t.Fatalf("corrupted byte %d at offset %d not detected", i, off)
		}
	}
}

// TestKeystreamUnalignedOffsets exercises offsets that do not land on AES
// block boundaries (509-byte payloads guarantee most don't).
func TestKeystreamUnalignedOffsets(t *testing.T) {
	seq, ra := keystreamFixture(t)
	stream := make([]byte, 1<<14)
	seq.ApplyBytes(stream[:PayloadSize])
	seq.ApplyBytes(stream[PayloadSize : 2*PayloadSize])
	// Fill the rest sequentially in odd chunk sizes.
	pos := 2 * PayloadSize
	for pos < len(stream) {
		n := min(37, len(stream)-pos)
		seq.ApplyBytes(stream[pos : pos+n])
		pos += n
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		off := rng.Intn(len(stream) - 64)
		n := 1 + rng.Intn(64)
		got := make([]byte, n)
		ra.XORAt(got, uint64(off))
		if !bytes.Equal(got, stream[off:off+n]) {
			t.Fatalf("offset %d len %d: unaligned random access diverges", off, n)
		}
	}
}

// TestKeystreamCounterCarry drives the counter addition across byte
// boundaries with a high-valued IV so the carry propagation is exercised.
func TestKeystreamCounterCarry(t *testing.T) {
	var key, iv [16]byte
	copy(key[:], "carry-test-key00")
	for i := 8; i < 16; i++ {
		iv[i] = 0xff // low half all-ones: first increment carries far
	}
	seq, err := NewCryptoState(key, iv)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := NewKeystream(key, iv)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 1024)
	seq.ApplyBytes(want)
	got := make([]byte, 1024)
	ra.XORAt(got, 0)
	if !bytes.Equal(got, want) {
		t.Fatal("keystream diverges across counter carry boundary")
	}
	// And a far offset: block index addition with carry into the IV's
	// high half.
	tail := make([]byte, 64)
	ra.XORAt(tail, 1024-64)
	if !bytes.Equal(tail, want[1024-64:]) {
		t.Fatal("offset keystream diverges across counter carry boundary")
	}
}

// TestKeystreamVerifyZeroAlloc pins the spot-check path at zero heap
// allocations per verified cell.
func TestKeystreamVerifyZeroAlloc(t *testing.T) {
	_, ra := keystreamFixture(t)
	buf := make([]byte, PayloadSize)
	ra.XORAt(buf, 42*PayloadSize)
	if n := testing.AllocsPerRun(200, func() {
		if !ra.VerifyAt(buf, 42*PayloadSize) {
			t.Fatal("verification failed")
		}
	}); n != 0 {
		t.Fatalf("VerifyAt allocates %v per cell, want 0", n)
	}
}

// BenchmarkKeystreamVerify is the measurer's echo-check cost in cells/s:
// random-access VerifyAt over a batch of genuine echoes (zero payloads
// run through the forward cipher, exactly what an honest target returns).
// At check probability p the reader pays p × this per-cell cost.
func BenchmarkKeystreamVerify(b *testing.B) {
	km := DeriveKeys([]byte("bench-keystream-verify"))
	ks, err := NewKeystream(km.ForwardKey, km.ForwardIV)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := NewCryptoState(km.ForwardKey, km.ForwardIV)
	if err != nil {
		b.Fatal(err)
	}
	echoes := make([][]byte, BatchCells)
	for i := range echoes {
		echoes[i] = make([]byte, PayloadSize)
		enc.ApplyBytes(echoes[i])
	}
	b.SetBytes(PayloadSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % BatchCells
		if !ks.VerifyAt(echoes[k], uint64(k)*PayloadSize) {
			b.Fatal("keystream verification failed on an honest echo")
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}
