package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"flashflow/internal/stats"
)

// Backend executes a single measurement slot against a target relay. The
// simulation backend (SimBackend) models Internet paths and the relay's
// scheduler; the wire backend (package wire) runs the real protocol over
// net.Conns. Implementations return the raw per-second data for the
// BWAuth to aggregate.
type Backend interface {
	// RunMeasurement measures the named target for the given number of
	// seconds with the per-measurer rate allocation (bits/s, aligned with
	// the team) and socket split.
	//
	// The slot is cancellable: implementations must honor ctx and tear the
	// slot down promptly — within about one second of data — when it is
	// cancelled, returning the data for the seconds that completed before
	// cancellation together with ctx.Err(). Callers that cancelled
	// deliberately (the §4.2 early abort, a coordinator shutdown) salvage
	// that partial data instead of discarding the slot.
	//
	// The slot is observable: when sink is non-nil, the implementation
	// delivers a Sample for every completed second while the slot runs.
	// The returned MeasurementData remains the authoritative record; the
	// stream is a live view of the same numbers.
	RunMeasurement(ctx context.Context, target string, alloc Allocation, seconds int, sink SampleSink) (MeasurementData, error)
}

// MeasureOutcome records the result of measuring one relay, including the
// sequence of attempts the doubling loop performed (§4.2).
type MeasureOutcome struct {
	Relay string
	// EstimateBps is the final capacity estimate in bits/s.
	EstimateBps float64
	// Attempts lists each measurement attempt's allocated capacity and
	// resulting estimate.
	Attempts []MeasureAttempt
	// Conclusive indicates the final estimate satisfied the acceptance
	// condition. An inconclusive outcome means the loop hit its attempt
	// bound or the team's capacity ceiling; the last estimate is reported.
	Conclusive bool
}

// MeasureAttempt is one iteration of the measure-relay loop.
type MeasureAttempt struct {
	AllocatedBps float64
	EstimateBps  float64
	Accepted     bool
	// Seconds is the number of slot seconds the attempt actually consumed.
	// Equal to Params.SlotSeconds for a full slot; smaller when the
	// attempt was aborted early or interrupted.
	Seconds int
	// Aborted marks an attempt cut short by the early-abort rule: a
	// majority of the slot's seconds already exceeded the acceptance
	// bound, so the final median provably could not be accepted and the
	// loop jumped straight to the next doubling step.
	Aborted bool
	// ClampedSeconds counts the attempt's seconds whose normal-traffic
	// report hit the §4.1 r-ratio clamp; RatioClamped marks an estimate
	// clamped by the estimate-level 1/(1−r) invariant (RatioClampBound).
	// Both feed the §5 anomaly counters (OutcomeAnomalies).
	ClampedSeconds int
	RatioClamped   bool
	// MeasurerSkew is the CrossCheck per-measurer share deviation for
	// this attempt's slot — evidence of selective echoing within a team.
	MeasurerSkew float64
	// SentCells and LostCells are the slot's datagram-plane loss totals
	// (zero on the stream plane); see MeasurementData.
	SentCells int64
	LostCells int64
}

// SlotsUsed returns how many measurement slots the outcome consumed.
func (o MeasureOutcome) SlotsUsed() int { return len(o.Attempts) }

// SlotSecondsUsed returns the total measurement seconds the outcome
// consumed across all attempts — the quantity the early-abort rule
// reduces relative to SlotsUsed()·SlotSeconds.
func (o MeasureOutcome) SlotSecondsUsed() int {
	var s int
	for _, a := range o.Attempts {
		s += a.Seconds
	}
	return s
}

// ErrNoEstimate indicates MeasureRelay could not produce any estimate.
var ErrNoEstimate = errors.New("core: no estimate produced")

// noopLocker is the gate used by the sequential MeasureRelay path.
type noopLocker struct{}

func (noopLocker) Lock()   {}
func (noopLocker) Unlock() {}

// MeasureRelay runs the §4.2 measurement process for one relay: allocate
// f·z0 capacity, measure, accept if the estimate is small enough relative
// to the allocation; otherwise set z0 = max(z, 2·z0) and repeat with more
// capacity. z0Bps is the prior estimate (an old relay's previous estimate,
// or the new-relay percentile prior). Cancelling ctx tears down the
// in-flight slot promptly; the returned outcome carries any attempts (and
// partial attempt) completed before cancellation alongside ctx's error.
func MeasureRelay(ctx context.Context, backend Backend, team []*Measurer, relayName string, z0Bps float64, p Params) (MeasureOutcome, error) {
	return MeasureRelayGuarded(ctx, backend, team, noopLocker{}, relayName, z0Bps, p)
}

// abortWatcher implements the §4.2 early-abort rule over a sample stream.
// The acceptance condition compares the median of the slot's per-second
// totals against the bound B = Σa_i·(1−ε1)/m: once ⌊t/2⌋+1 seconds have
// totals at or above B, the median over all t seconds is at least B no
// matter what the remaining seconds deliver, so the attempt can only end
// rejected and the slot is cancelled immediately.
type abortWatcher struct {
	boundBytes float64 // per-second total (bytes) at/above which a second counts against acceptance
	ratio      float64
	needed     int
	over       int
	cancel     context.CancelFunc
	aborted    atomic.Bool
}

func (w *abortWatcher) sink(s Sample) {
	if w.aborted.Load() {
		return
	}
	if SampleTotalBytes(s, w.ratio) >= w.boundBytes {
		w.over++
		if w.over >= w.needed {
			w.aborted.Store(true)
			w.cancel()
		}
	}
}

// MeasureRelayGuarded is MeasureRelay with every read or write of the
// team's committed capacity serialized through gate, so concurrent
// measurements (internal/coord runs a schedule slot's assignments on a
// worker pool) can safely share one team. The backend call itself runs
// outside the lock. Under concurrency AllocateGreedy can fail with
// ErrInsufficientCapacity when in-flight measurements hold the residual
// capacity; callers treat that as a retryable condition.
func MeasureRelayGuarded(ctx context.Context, backend Backend, team []*Measurer, gate sync.Locker, relayName string, z0Bps float64, p Params) (MeasureOutcome, error) {
	if err := p.Validate(); err != nil {
		return MeasureOutcome{}, err
	}
	if z0Bps <= 0 {
		return MeasureOutcome{}, fmt.Errorf("core: nonpositive prior %v for %s", z0Bps, relayName)
	}
	out := MeasureOutcome{Relay: relayName}
	teamCap := TeamCapacityBps(team)
	for attempt := 0; attempt < p.MaxMeasureAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("measure %s: %w", relayName, err)
		}
		need := RequiredBps(z0Bps, p)
		atCeiling := false
		if need > teamCap {
			// The team cannot supply more: measure with everything it
			// has; the result cannot be validated as conclusive if too
			// large, but it is the best obtainable estimate.
			need = teamCap
			atCeiling = true
		}
		gate.Lock()
		alloc, err := AllocateGreedyFrom(team, need, relayPreferredMeasurer(relayName, len(team)), p)
		if err != nil {
			gate.Unlock()
			return out, err
		}
		Commit(team, alloc)
		gate.Unlock()

		// Early abort only pays off when a further doubling step exists to
		// jump to: at the team's ceiling or on the final attempt the slot
		// runs to completion so the reported (inconclusive) estimate keeps
		// its full median quality.
		attemptCtx, cancelAttempt := context.WithCancel(ctx)
		var watcher *abortWatcher
		sink := SampleSink(nil)
		if !p.DisableEarlyAbort && !atCeiling && attempt < p.MaxMeasureAttempts-1 {
			watcher = &abortWatcher{
				boundBytes: alloc.TotalBps * (1 - p.Eps1) / p.Multiplier / 8,
				ratio:      p.Ratio,
				needed:     p.SlotSeconds/2 + 1,
				cancel:     cancelAttempt,
			}
			sink = watcher.sink
		}
		data, err := backend.RunMeasurement(attemptCtx, relayName, alloc, p.SlotSeconds, sink)
		cancelAttempt()
		gate.Lock()
		Release(team, alloc)
		gate.Unlock()

		aborted := watcher != nil && watcher.aborted.Load() && ctx.Err() == nil
		if err != nil && !(aborted && errors.Is(err, context.Canceled)) {
			// A real failure (or external cancellation): salvage whatever
			// the slot delivered before dying into the attempt record, so
			// callers (the coordinator's retry pipeline, a ctrl-C'd CLI)
			// still see the partial estimate. A zero estimate (e.g. every
			// wire member died before echoing a byte) carries no
			// information and is not recorded.
			if agg, secs, ok := partialEstimate(data, p); ok && agg.EstimateBytesPerSec > 0 {
				zBps := agg.EstimateBytesPerSec * 8
				out.Attempts = append(out.Attempts, MeasureAttempt{
					AllocatedBps:   alloc.TotalBps,
					EstimateBps:    zBps,
					Seconds:        secs,
					ClampedSeconds: agg.ClampedSeconds,
					RatioClamped:   agg.RatioClamped,
					MeasurerSkew:   CrossCheck(data, alloc, p.Ratio).MeasurerSkew,
					SentCells:      data.SentCells,
					LostCells:      data.LostCells,
				})
				out.EstimateBps = zBps
			}
			return out, fmt.Errorf("measure %s: %w", relayName, err)
		}

		if aborted {
			// The §4.1 echo-verification check outranks the abort: a slot
			// that caught the relay forging must be discarded exactly as a
			// full-length slot would be, never silently continued.
			if data.Failed {
				return out, fmt.Errorf("aggregate %s: %w", relayName, ErrMeasurementFailed)
			}
			// §4.2 early abort: the majority of observed seconds already
			// exceeded the acceptance bound, so this allocation can only
			// end rejected. Record the partial attempt and jump straight
			// to the next doubling step.
			agg, secs, _ := partialEstimate(data, p)
			zBps := agg.EstimateBytesPerSec * 8
			out.Attempts = append(out.Attempts, MeasureAttempt{
				AllocatedBps:   alloc.TotalBps,
				EstimateBps:    zBps,
				Seconds:        secs,
				Aborted:        true,
				ClampedSeconds: agg.ClampedSeconds,
				RatioClamped:   agg.RatioClamped,
				MeasurerSkew:   CrossCheck(data, alloc, p.Ratio).MeasurerSkew,
			})
			if zBps > 0 {
				out.EstimateBps = zBps
			}
			if zBps > 2*z0Bps {
				z0Bps = zBps
			} else {
				z0Bps = 2 * z0Bps
			}
			continue
		}

		agg, err := aggregateEstimate(data, p.Ratio)
		if err != nil {
			return out, fmt.Errorf("aggregate %s: %w", relayName, err)
		}
		zBps := agg.EstimateBytesPerSec * 8
		accepted := EstimateAccepted(agg.EstimateBytesPerSec, alloc.TotalBps, p)
		if data.Incomplete {
			// A measurer dropped out mid-slot: the surviving members'
			// bytes are an honest lower bound, good enough to drive the
			// doubling loop but never to conclude a measurement.
			accepted = false
		}
		out.Attempts = append(out.Attempts, MeasureAttempt{
			AllocatedBps:   alloc.TotalBps,
			EstimateBps:    zBps,
			Accepted:       accepted,
			Seconds:        dataSeconds(data),
			ClampedSeconds: agg.ClampedSeconds,
			RatioClamped:   agg.RatioClamped,
			MeasurerSkew:   CrossCheck(data, alloc, p.Ratio).MeasurerSkew,
			SentCells:      data.SentCells,
			LostCells:      data.LostCells,
		})
		out.EstimateBps = zBps
		if accepted {
			out.Conclusive = true
			return out, nil
		}
		if atCeiling {
			// No more capacity to throw at it; report the ceiling-bound
			// estimate as inconclusive.
			return out, nil
		}
		// §4.2: z0 = max(z, 2·z0) guarantees the allocation at least
		// doubles.
		if zBps > 2*z0Bps {
			z0Bps = zBps
		} else {
			z0Bps = 2 * z0Bps
		}
	}
	if len(out.Attempts) == 0 {
		return out, ErrNoEstimate
	}
	return out, nil
}

// dataSeconds returns the number of per-second entries the data carries.
func dataSeconds(data MeasurementData) int {
	if len(data.MeasBytes) == 0 {
		return 0
	}
	return len(data.MeasBytes[0])
}

// partialEstimate aggregates a possibly truncated slot. It reports ok
// only when the data contains at least one complete second and passes the
// echo-verification check — a failed slot must never contribute an
// estimate. The AggregateResult (without its per-second series) is
// returned so callers can record the attempt's anomaly evidence (clamped
// seconds, invariant-clamp hits) alongside the salvaged estimate.
func partialEstimate(data MeasurementData, p Params) (agg AggregateResult, seconds int, ok bool) {
	agg, err := aggregateEstimate(data, p.Ratio)
	if err != nil {
		return AggregateResult{}, dataSeconds(data), false
	}
	return agg, dataSeconds(data), true
}

// relayPreferredMeasurer maps a relay name to a stable starting index for
// the allocation tie-break, so a relay keeps landing on the same measurers
// (and their pooled connections) across measurement rounds.
func relayPreferredMeasurer(relayName string, teamSize int) int {
	if teamSize <= 0 {
		return 0
	}
	// FNV-1a, inline so the per-attempt path does not allocate a hash.
	h := uint32(2166136261)
	for i := 0; i < len(relayName); i++ {
		h ^= uint32(relayName[i])
		h *= 16777619
	}
	return int(h % uint32(teamSize))
}

// NewRelayPrior returns the z0 prior for a relay without a usable estimate:
// the configured percentile of last-month measured capacities (§4.2). If
// history is empty it falls back to 50 Mbit/s, approximating the paper's
// July-2019 75th-percentile advertised bandwidth of 51 Mbit/s.
func NewRelayPrior(lastMonthBps []float64, p Params) float64 {
	if len(lastMonthBps) == 0 {
		return 50e6
	}
	v := stats.Percentile(lastMonthBps, p.NewRelayPercentile)
	if v <= 0 {
		return 50e6
	}
	return v
}
