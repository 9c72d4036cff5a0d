package wire

import (
	"testing"
	"time"

	"flashflow/internal/cell"
)

// fakeClock drives a pacer deterministically: clock() returns the current
// fake time and sleep(d) advances it, modeling a caller that always wakes
// exactly on schedule.
type fakeClock struct {
	now    time.Time
	sleeps []time.Duration
}

func newFakePacer(rateBps float64) (*pacer, *fakeClock) {
	fc := &fakeClock{now: time.Unix(1000, 0)}
	p := &pacer{
		rateBps: rateBps,
		clock:   func() time.Time { return fc.now },
		sleep: func(d time.Duration) {
			fc.sleeps = append(fc.sleeps, d)
			fc.now = fc.now.Add(d)
		},
	}
	return p, fc
}

func (fc *fakeClock) totalSlept() time.Duration {
	var t time.Duration
	for _, d := range fc.sleeps {
		t += d
	}
	return t
}

// TestPacerExactAtMultiGbit checks schedule precision at 10 Gbit/s: after
// many batches the total paced time must equal bits/rate to sub-microsecond
// accuracy. The cumulative absolute schedule must not lose the
// sub-nanosecond remainder of each batch to per-call rounding — at high
// rates a truncated duration per call compounds into a measurable rate
// error.
func TestPacerExactAtMultiGbit(t *testing.T) {
	const rate = 10e9
	const batchBits = 32 * 514 * 8 // one cell batch: ~13.2 µs at 10 Gbit/s
	p, fc := newFakePacer(rate)
	const batches = 100000
	for i := 0; i < batches; i++ {
		p.wait(batchBits)
	}
	wantSec := float64(batches) * batchBits / rate
	got := fc.totalSlept().Seconds()
	if diff := got - wantSec; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("paced %.9fs for %.9fs of traffic (drift %.3gs)", got, wantSec, diff)
	}
}

// TestPacerAdmitsAtRate checks the basic invariant the data plane depends
// on: bits admitted by elapsed time t never exceed rate·t, and a caller
// that always has traffic ready achieves the full rate (no starvation from
// rounding or schedule bookkeeping).
func TestPacerAdmitsAtRate(t *testing.T) {
	const rate = 50e6
	const batchBits = 32 * 514 * 8
	p, fc := newFakePacer(rate)
	start := fc.now
	var bits float64
	for fc.now.Sub(start) < time.Second {
		p.wait(batchBits)
		bits += batchBits
	}
	elapsed := fc.now.Sub(start).Seconds()
	got := bits / elapsed
	if got > rate*1.001 {
		t.Fatalf("admitted %.0f bit/s, exceeds rate %.0f", got, rate)
	}
	if got < rate*0.999 {
		t.Fatalf("admitted %.0f bit/s, starved below rate %.0f", got, rate)
	}
}

// TestPacerNoBurstAfterIdleReset checks that an idle gap longer than
// pacerIdleReset yields no banked credit: the first batch after the reset
// paces for its own full transmission time instead of riding the gap's
// accumulated schedule slack. Without the reset (or with a buggy one) a
// target parked between coordinator rounds would echo the next slot's
// opening cells unpaced and inflate that slot's estimate.
func TestPacerNoBurstAfterIdleReset(t *testing.T) {
	const rate = 8e6
	const batchBits = 32 * 514 * 8 // ~16.4 ms at 8 Mbit/s
	p, fc := newFakePacer(rate)
	for i := 0; i < 10; i++ {
		p.wait(batchBits)
	}
	fc.now = fc.now.Add(3 * time.Second) // parked well past pacerIdleReset
	fc.sleeps = nil
	p.wait(batchBits)
	want := time.Duration(batchBits / rate * float64(time.Second))
	if got := fc.totalSlept(); got < want-time.Millisecond {
		t.Fatalf("first batch after idle paced %v, want ≈%v (banked credit burst)", got, want)
	}
}

// TestPacerLowRateNotMistakenForIdle checks the idle detection is measured
// against the schedule horizon, not the last call time: at a rate where
// each batch paces for longer than pacerIdleReset, the window must NOT
// reset between batches — that would erase the schedule every call and
// stop limiting the rate entirely.
func TestPacerLowRateNotMistakenForIdle(t *testing.T) {
	const rate = 100e3 // one 32-cell batch paces ~1.3s, far past the reset window
	const batchBits = 32 * 514 * 8
	p, fc := newFakePacer(rate)
	start := fc.now
	const batches = 5
	for i := 0; i < batches; i++ {
		p.wait(batchBits)
	}
	wantSec := float64(batches) * batchBits / rate
	if got := fc.now.Sub(start).Seconds(); got < wantSec*0.99 {
		t.Fatalf("%d batches took %.2fs, want ≥%.2fs (idle reset erased the schedule)", batches, got, wantSec)
	}
}

// TestPacerFirstBatchBounded checks the slot-opening latency contract: the
// first batch of a window sleeps only its own transmission time. Combined
// with quantumBits-sized batches, no caller waits more than roughly
// pacerMaxSleep before its first write reaches the wire.
func TestPacerFirstBatchBounded(t *testing.T) {
	const rate = 8e6
	p, fc := newFakePacer(rate)
	bits := p.quantumBits()
	p.wait(bits)
	want := time.Duration(bits / rate * float64(time.Second))
	if got := fc.totalSlept(); got > want+time.Millisecond {
		t.Fatalf("first quantum paced %v, want ≤%v", got, want)
	}
	if got := fc.totalSlept(); got > 2*pacerMaxSleep {
		t.Fatalf("first quantum paced %v, quantum contract is ~%v", got, pacerMaxSleep)
	}
}

// TestPacerZeroRateUnlimited checks rate 0 never blocks (unpaced perf
// scenarios and unlimited targets).
func TestPacerZeroRateUnlimited(t *testing.T) {
	p, fc := newFakePacer(0)
	for i := 0; i < 100; i++ {
		p.wait(1e9)
	}
	if len(fc.sleeps) != 0 {
		t.Fatalf("unpaced pacer slept %d times", len(fc.sleeps))
	}
	if !p.start.IsZero() {
		t.Fatal("unpaced pacer should not track a window")
	}
}

// TestPacerQuantumBits checks the batch-sizing helper: paced rates get one
// pacerMaxSleep worth of bits; unpaced is unbounded.
func TestPacerQuantumBits(t *testing.T) {
	p := &pacer{rateBps: 8e6}
	want := 8e6 * pacerMaxSleep.Seconds()
	if got := p.quantumBits(); got != want {
		t.Fatalf("quantumBits at 8 Mbit/s: %v want %v", got, want)
	}
	p0 := &pacer{}
	if got := p0.quantumBits(); !(got > 1e18) {
		t.Fatalf("unpaced quantumBits should be unbounded, got %v", got)
	}
}

// TestPacerBatchCellsSliverAllocation pins the send loop's cells per
// write: the plane's limit when unpaced or fast, a quantum's worth in
// between, and at a ~50 kbit/s sliver one cell, so that no single wait
// sleeps longer than max(pacerMaxSleep, one cell time) — a full 256-cell
// write there would sleep over 20 s. The sender takes window credit for a
// whole write at once, so the smallest window a measurement can have must
// hold the largest write, or the send loop waits forever.
func TestPacerBatchCellsSliverAllocation(t *testing.T) {
	const cellBits = cell.Size * 8
	for _, tc := range []struct {
		rate  float64
		limit int
		want  int
	}{
		{0, cell.SuperCells, cell.SuperCells},
		{0, udpDatagramCells, udpDatagramCells},
		{1e9, cell.SuperCells, cell.SuperCells},
		{1e9, udpDatagramCells, udpDatagramCells},
		{31e6, cell.SuperCells, 150},
		{31e6, udpDatagramCells, udpDatagramCells},
		{1e6, cell.SuperCells, 4},
		{1e6, udpDatagramCells, 4},
		{50e3, cell.SuperCells, 1},
		{50e3, udpDatagramCells, 1},
		{1e3, cell.SuperCells, 1},
	} {
		p, fc := newFakePacer(tc.rate)
		n := batchCells(p.quantumBits(), tc.limit)
		if n != tc.want {
			t.Fatalf("rate %.0f limit %d: batchCells %d, want %d", tc.rate, tc.limit, n, tc.want)
		}
		if minWindow := min(int64(inflightWindow), maxWindowCells); minWindow < int64(n) {
			t.Fatalf("rate %.0f limit %d: a one-circuit window (%d cells) cannot hold one %d-cell write", tc.rate, tc.limit, minWindow, n)
		}
		if tc.rate == 0 {
			continue
		}
		cellTime := time.Duration(float64(cellBits) / tc.rate * float64(time.Second))
		bound := max(pacerMaxSleep, cellTime)
		for i := 0; i < 20; i++ {
			p.wait(float64(n * cellBits))
		}
		for i, d := range fc.sleeps {
			if d > bound+time.Microsecond {
				t.Fatalf("rate %.0f: wait %d slept %v, bound %v", tc.rate, i, d, bound)
			}
		}
	}
}
