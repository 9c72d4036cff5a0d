package wire

import (
	"math"
	"sync"
	"time"

	"flashflow/internal/cell"
)

// pacer throttles aggregate throughput to rateBps using wall-clock time.
// It keeps a cumulative bit count against an absolute window start, so the
// admission times it computes never drift: rounding in one wait is
// corrected by the next, and float64 holds the cumulative count exactly
// for any realistic run (2^53 bits is ~1 exabyte).
type pacer struct {
	mu       sync.Mutex
	rateBps  float64
	start    time.Time
	last     time.Time // schedule horizon: the later of now and the last batch's transmit end
	sentBits float64

	// clock and sleep are test seams; nil selects time.Now and time.Sleep.
	clock func() time.Time
	sleep func(time.Duration)
}

// pacerIdleReset bounds how much unused pacing credit an idle gap may
// accumulate: after this much quiet the pacing window restarts. Without
// it, a target parked between measurement rounds (pooled connections,
// internal/coord) banks the whole gap as credit and echoes the next
// slot's opening cells unpaced, inflating that slot's estimate. Idleness
// is measured against the schedule horizon, not the last call time — a
// single low-rate super-batch legitimately paces for longer than the
// reset window, and mistaking that pacing sleep for idleness would reset
// the window every call.
const pacerIdleReset = 500 * time.Millisecond

// pacerMaxSleep is the target quantum for a single pacing sleep. Callers
// size their batches via quantumBits so one wait never parks them for
// longer than roughly this: admitting a multi-hundred-millisecond batch in
// one piece makes the echo stream so bursty that per-second accounting
// (and the §4.2 acceptance decision built on it) wobbles by a full batch.
const pacerMaxSleep = 20 * time.Millisecond

// wait blocks until the pacer has scheduled the batch's transmission: the
// batch is credited against the cumulative schedule and the caller sleeps
// until the schedule reaches the batch's end. Crediting before sleeping
// keeps the admitted rate exact — bits admitted by time t never exceed
// rateBps·t, so no overshoot accumulates across batches, connections, or
// back-to-back measurement slots (an earlier admit-then-credit variant
// leaked one batch of free credit per waiter, which compounded into
// double-digit rate errors at super-batch sizes). Callers bound the
// per-call sleep by sizing batches with quantumBits.
func (p *pacer) wait(bits float64) {
	if p.rateBps <= 0 {
		return
	}
	p.mu.Lock()
	now := p.clockNow()
	if p.start.IsZero() || now.Sub(p.last) > pacerIdleReset {
		p.start = now
		p.sentBits = 0
	}
	p.sentBits += bits
	end := p.start.Add(time.Duration(p.sentBits / p.rateBps * float64(time.Second)))
	d := end.Sub(now)
	if d > 0 {
		p.last = end
	} else {
		p.last = now
	}
	p.mu.Unlock()
	if d > 0 {
		p.doSleep(d)
	}
}

// quantumBits returns how many bits transmit in pacerMaxSleep at the
// pacer's rate — the batch size callers should aim for so a single wait
// sleeps no longer than the quantum. Unpaced (rate 0) returns +Inf: batch
// as large as you like.
func (p *pacer) quantumBits() float64 {
	if p.rateBps <= 0 {
		return math.Inf(1)
	}
	return p.rateBps * pacerMaxSleep.Seconds()
}

// batchCells is how many cells one send-loop write carries: limit
// (cell.SuperCells on TCP, udpDatagramCells — one datagram — on UDP),
// capped at one pacing quantum of quantumBits and at least one cell. At a
// sliver allocation — tens of kbit/s — a full write is over a megabit, and
// pacing it would park the sender for seconds in one wait, past the slot's
// end. Unpaced, the quantum is +Inf, so the comparison stays in float and
// only a finite, smaller quantum is converted.
func batchCells(quantumBits float64, limit int) int {
	if q := quantumBits / (cell.Size * 8); q < float64(limit) {
		return max(1, int(q))
	}
	return limit
}

func (p *pacer) clockNow() time.Time {
	if p.clock != nil {
		return p.clock()
	}
	return time.Now()
}

func (p *pacer) doSleep(d time.Duration) {
	if p.sleep != nil {
		p.sleep(d)
		return
	}
	time.Sleep(d)
}
