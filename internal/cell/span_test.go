package cell

import (
	"bytes"
	"crypto/rand"
	"math"
	"testing"
	"time"
)

// TestApplySpansMatchesSequential pins the span API's defining property:
// ApplySpans over any offset set transforms exactly the bytes, and
// advances the stream exactly as far, as the same number of in-order
// ApplyBytes calls. The offsets are scattered (interleaved circuits in a
// shared arena) and the count crosses the SpanCells chunk boundary so the
// internal chunking is exercised.
func TestApplySpansMatchesSequential(t *testing.T) {
	const nCells = 3*SpanCells + 7 // several full chunks plus a ragged tail
	arena := make([]byte, nCells*Size)
	if _, err := rand.Read(arena); err != nil {
		t.Fatal(err)
	}
	ref := append([]byte(nil), arena...)

	km := DeriveKeys([]byte("span-equivalence"))
	spanSt, err := NewCryptoState(km.ForwardKey, km.ForwardIV)
	if err != nil {
		t.Fatal(err)
	}
	seqSt, err := NewCryptoState(km.ForwardKey, km.ForwardIV)
	if err != nil {
		t.Fatal(err)
	}

	// Only every other cell belongs to this circuit: the span's offsets are
	// non-contiguous in the arena, like a real multi-circuit batch.
	var offs []int32
	for i := 0; i < nCells; i++ {
		if i%2 == 0 || i > nCells-10 {
			offs = append(offs, int32(i*Size))
		}
	}
	spanSt.ApplySpans(arena, offs, NewSpanScratch())
	for _, off := range offs {
		seqSt.ApplyBytes(ref[off+5 : int(off)+Size])
	}
	if !bytes.Equal(arena, ref) {
		t.Fatal("ApplySpans output differs from sequential ApplyBytes")
	}
	if spanSt.Processed() != seqSt.Processed() {
		t.Fatalf("stream advance: span %d cells, sequential %d", spanSt.Processed(), seqSt.Processed())
	}
	if spanSt.Processed() != uint64(len(offs)) {
		t.Fatalf("Processed() = %d, want %d", spanSt.Processed(), len(offs))
	}

	// The two states must still agree after the batch: the next sequential
	// cell decrypts identically through either.
	probe := make([]byte, PayloadSize)
	probeRef := make([]byte, PayloadSize)
	spanSt.ApplyBytes(probe)
	seqSt.ApplyBytes(probeRef)
	if !bytes.Equal(probe, probeRef) {
		t.Fatal("stream positions diverged after ApplySpans")
	}
}

// TestApplySpansInvolution checks CTR's involution property survives the
// span path: a peer with the same key decrypting via ApplySpans recovers
// the plaintext a sequential encryptor produced.
func TestApplySpansInvolution(t *testing.T) {
	const nCells = SpanCells + 3
	plain := make([]byte, nCells*Size)
	for i := range plain {
		plain[i] = byte(i * 131)
	}
	arena := append([]byte(nil), plain...)

	km := DeriveKeys([]byte("span-involution"))
	enc, err := NewCryptoState(km.ForwardKey, km.ForwardIV)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewCryptoState(km.ForwardKey, km.ForwardIV)
	if err != nil {
		t.Fatal(err)
	}
	offs := make([]int32, nCells)
	for i := range offs {
		offs[i] = int32(i * Size)
		enc.ApplyBytes(arena[i*Size+5 : (i+1)*Size])
	}
	dec.ApplySpans(arena, offs, NewSpanScratch())
	if !bytes.Equal(arena, plain) {
		t.Fatal("span decrypt did not invert sequential encrypt")
	}
}

// TestApplySpansZeroAllocs guards the decrypt worker's steady state: one
// ApplySpans call over a full batch must not touch the heap.
func TestApplySpansZeroAllocs(t *testing.T) {
	km := DeriveKeys([]byte("span-allocs"))
	st, err := NewCryptoState(km.ForwardKey, km.ForwardIV)
	if err != nil {
		t.Fatal(err)
	}
	arena := make([]byte, SuperBytes)
	offs := make([]int32, SuperCells)
	for i := range offs {
		offs[i] = int32(i * Size)
	}
	scratch := NewSpanScratch()
	if n := testing.AllocsPerRun(100, func() {
		st.ApplySpans(arena, offs, scratch)
	}); n != 0 {
		t.Fatalf("ApplySpans: %v allocs per %d-cell span, want 0", n, SuperCells)
	}
}

// spanPairsPerOp is the number of interleaved sequential/span passes one
// BenchmarkApplySpans op makes, so even a single-iteration run (-benchtime
// 1x) compares many samples per side.
const spanPairsPerOp = 32

// BenchmarkApplySpans races the span decrypt (one XORKeyStream per
// SpanCells payloads, scattered back per cell) against sequential
// per-payload ApplyBytes calls over the same super arena. The two sides
// alternate pass by pass, so scheduler and thermal drift hit both alike,
// and each side's fastest pass is compared so a preemption landing in one
// pass cannot decide the race. It reports the span path's cells/s and
// span_ratio (sequential time / span time for equal cells), and fails
// unless spans win: materializing keystream in cipher-sized runs instead
// of 509-byte calls is the whole point of the span path.
// TestApplySpansMatchesSequential pins that both produce the same bytes.
func BenchmarkApplySpans(b *testing.B) {
	km := DeriveKeys([]byte("bench-apply-spans"))
	seqSt, err := NewCryptoState(km.ForwardKey, km.ForwardIV)
	if err != nil {
		b.Fatal(err)
	}
	spanSt, err := NewCryptoState(km.ForwardKey, km.ForwardIV)
	if err != nil {
		b.Fatal(err)
	}
	arena := make([]byte, SuperBytes)
	offs := make([]int32, SuperCells)
	payloads := make([][]byte, SuperCells)
	for i := range offs {
		offs[i] = int32(i * Size)
		payloads[i] = PayloadOf(arena[i*Size:])
	}
	scratch := NewSpanScratch()

	var spanTotal time.Duration
	seqBest, spanBest := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < spanPairsPerOp; j++ {
			t0 := time.Now()
			for _, p := range payloads {
				seqSt.ApplyBytes(p)
			}
			t1 := time.Now()
			spanSt.ApplySpans(arena, offs, scratch)
			t2 := time.Now()
			seqBest = min(seqBest, t1.Sub(t0))
			spanBest = min(spanBest, t2.Sub(t1))
			spanTotal += t2.Sub(t1)
		}
	}
	b.StopTimer()
	ratio := seqBest.Seconds() / spanBest.Seconds()
	b.ReportMetric(float64(b.N*spanPairsPerOp*SuperCells)/spanTotal.Seconds(), "cells/s")
	b.ReportMetric(ratio, "span_ratio")
	if ratio <= 1 {
		b.Fatalf("span decrypt %.3fx sequential, want >1x", ratio)
	}
}
