package core

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file implements the §5 defense bookkeeping: per-team cross-checks
// of member-reported vs target-reported bytes, and per-relay anomaly
// counters derived from measurement outcomes. internal/coord records
// the counters in its one per-relay table and surfaces them
// (Status().Anomalies and the coord_anomaly_* metrics counters).

// AnomalyCounts accumulates per-relay evidence of §5 misbehavior. Each
// field counts one defense firing; none of them alone proves an attack —
// honest saturation clamps seconds too — but a relay accumulating counts
// across rounds is exactly the "flapping liar" the retention window in
// internal/coord exists for.
type AnomalyCounts struct {
	// ClampedSeconds counts slot seconds whose normal-traffic report
	// exceeded the r-ratio limit and was clamped (§4.1) — the inflation
	// attack's signature.
	ClampedSeconds int64 `json:"clamped_seconds"`
	// RatioClampedSlots counts slots whose final estimate hit the
	// estimate-level 1/(1−r) invariant clamp (RatioClampBound). This
	// cannot fire on per-second-clamped data, so it flags inconsistent
	// accounting.
	RatioClampedSlots int64 `json:"ratio_clamped_slots"`
	// EchoFailures counts measurements discarded because probabilistic
	// echo verification caught forged cells (§4.1, §5).
	EchoFailures int64 `json:"echo_failures"`
	// StallSuspectSlots counts rejected attempts whose estimate tracked
	// the acceptance bound across doubling steps — the slot-stalling
	// pattern, where a relay deliberately echoes just enough to stay
	// inconclusive and burn scheduler slots.
	StallSuspectSlots int64 `json:"stall_suspect_slots"`
	// SkewSuspectSlots counts slots where one measurer's received share
	// diverged sharply from its allocation share (CrossCheck) — the
	// signature of a relay answering team members selectively.
	SkewSuspectSlots int64 `json:"skew_suspect_slots"`
	// SplitViewRounds counts rounds in which the relay showed different
	// BWAuths significantly different capacities (selective lying across
	// teams); recorded by internal/coord from cross-BWAuth medians.
	SplitViewRounds int64 `json:"split_view_rounds"`
}

// Add accumulates another record into a.
func (a *AnomalyCounts) Add(b AnomalyCounts) {
	a.ClampedSeconds += b.ClampedSeconds
	a.RatioClampedSlots += b.RatioClampedSlots
	a.EchoFailures += b.EchoFailures
	a.StallSuspectSlots += b.StallSuspectSlots
	a.SkewSuspectSlots += b.SkewSuspectSlots
	a.SplitViewRounds += b.SplitViewRounds
}

// Total returns the sum of all counts — zero means a clean record.
func (a AnomalyCounts) Total() int64 {
	return a.ClampedSeconds + a.RatioClampedSlots + a.EchoFailures +
		a.StallSuspectSlots + a.SkewSuspectSlots + a.SplitViewRounds
}

// anomalyFields is the number of counter fields the binary encoding
// carries, in declaration order. The encoding is append-only: a future
// field is appended here and to the two functions below, never inserted,
// so old readers skip fields they don't know and old files decode with
// the missing fields zero.
const anomalyFields = 6

// AppendBinary appends the counters' durable encoding to buf and returns
// the extended buffer: a field count followed by that many varints. The
// field-count prefix is what makes the format extensible — internal/store
// persists these inside WAL records and snapshots, and files written by a
// newer flashflow with extra counters still decode here.
func (a AnomalyCounts) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, anomalyFields)
	for _, v := range [anomalyFields]int64{
		a.ClampedSeconds, a.RatioClampedSlots, a.EchoFailures,
		a.StallSuspectSlots, a.SkewSuspectSlots, a.SplitViewRounds,
	} {
		buf = binary.AppendVarint(buf, v)
	}
	return buf
}

// DecodeAnomalyCounts decodes an AppendBinary encoding from the front of
// p, returning the counts and the remaining bytes. Fields beyond the six
// this version knows are skipped (a newer writer appended counters);
// fields the encoding lacks stay zero (an older writer knew fewer).
func DecodeAnomalyCounts(p []byte) (AnomalyCounts, []byte, error) {
	var a AnomalyCounts
	fields, n := binary.Uvarint(p)
	if n <= 0 {
		return a, p, fmt.Errorf("core: anomaly counts: truncated field count")
	}
	p = p[n:]
	dst := [anomalyFields]*int64{
		&a.ClampedSeconds, &a.RatioClampedSlots, &a.EchoFailures,
		&a.StallSuspectSlots, &a.SkewSuspectSlots, &a.SplitViewRounds,
	}
	for i := uint64(0); i < fields; i++ {
		v, n := binary.Varint(p)
		if n <= 0 {
			return a, p, fmt.Errorf("core: anomaly counts: truncated field %d of %d", i, fields)
		}
		p = p[n:]
		if i < anomalyFields {
			*dst[i] = v
		}
	}
	return a, p, nil
}

// Stall-suspicion window: a rejected attempt whose estimate landed within
// this band of the acceptance bound B = Σaᵢ·(1−ε1)/m is consistent with a
// relay echoing "just enough to be rejected". An honest relay whose
// capacity exceeds its allocation echoes roughly the full allocation
// (≈ m/(1−ε1) ≈ 2.8× the bound with default parameters), far above the
// band, and an honest accepted attempt is below it by definition.
const (
	stallBandLow  = 0.8
	stallBandHigh = 1.5
	// stallMinAttempts is how many in-band rejected attempts one outcome
	// needs before they are counted: a single near-bound rejection is
	// ordinary doubling-loop behavior.
	stallMinAttempts = 2
)

// skewSuspectThreshold is the relative deviation of a measurer's received
// share from its allocation share beyond which CrossCheck flags the slot.
// Path noise moves shares by a few percent; answering one team member
// with half its traffic moves its share by ~50%.
const skewSuspectThreshold = 0.5

// OutcomeAnomalies derives the §5 anomaly evidence carried by one
// measurement outcome: clamped seconds summed over attempts, invariant-
// clamp hits, the stall pattern over the attempt sequence, and per-slot
// measurer skew. Echo failures surface as ErrMeasurementFailed from the
// measurement itself and are counted by the caller.
func OutcomeAnomalies(out MeasureOutcome, p Params) AnomalyCounts {
	var a AnomalyCounts
	stallish := int64(0)
	for _, att := range out.Attempts {
		a.ClampedSeconds += int64(att.ClampedSeconds)
		if att.RatioClamped {
			a.RatioClampedSlots++
		}
		if att.MeasurerSkew > skewSuspectThreshold {
			a.SkewSuspectSlots++
		}
		if !att.Accepted && att.AllocatedBps > 0 {
			bound := att.AllocatedBps * (1 - p.Eps1) / p.Multiplier
			if bound > 0 {
				ratio := att.EstimateBps / bound
				if ratio >= stallBandLow && ratio <= stallBandHigh {
					stallish++
				}
			}
		}
	}
	if stallish >= stallMinAttempts {
		a.StallSuspectSlots += stallish
	}
	return a
}

// CrossCheckReport is the per-team consistency check of one slot's data:
// what the target reported against what the team members received.
type CrossCheckReport struct {
	// ReportGap is the worst per-second ratio of the relay's claimed
	// normal bytes to the r-ratio credit the verified measurement
	// traffic supports (y_j over x_j·r/(1−r)). Honest saturation sits
	// near or below 1; a fabricated report is far above it.
	ReportGap float64
	// SuspectSeconds counts seconds whose claim exceeded the credit.
	SuspectSeconds int
	// MeasurerSkew is the largest relative deviation of any
	// participating measurer's received-byte share from its allocation
	// share — evidence of the relay echoing selectively within a team.
	MeasurerSkew float64
}

// CrossCheck runs the per-team §5 cross-checks over one slot's raw data.
// It never mutates data; callers record the report via OutcomeAnomalies
// (MeasureRelayGuarded stores the skew on each attempt).
func CrossCheck(data MeasurementData, alloc Allocation, ratio float64) CrossCheckReport {
	var rep CrossCheckReport
	seconds := dataSeconds(data)
	if seconds == 0 {
		return rep
	}
	clampFactor := ratio / (1 - ratio)
	for j := 0; j < seconds; j++ {
		var x float64
		for i := range data.MeasBytes {
			x += data.MeasBytes[i][j]
		}
		if j < len(data.NormBytes) && data.NormBytes[j] > 0 {
			limit := x * clampFactor
			gap := math.Inf(1)
			if limit > 0 {
				gap = data.NormBytes[j] / limit
			}
			if gap > rep.ReportGap {
				rep.ReportGap = gap
			}
			if gap > 1 {
				rep.SuspectSeconds++
			}
		}
	}

	if alloc.TotalBps > 0 {
		var total float64
		var receivedBuf [smallTeam]float64
		received := receivedBuf[:]
		if len(data.MeasBytes) > smallTeam {
			received = make([]float64, len(data.MeasBytes))
		}
		received = received[:len(data.MeasBytes)]
		for i := range data.MeasBytes {
			for j := 0; j < seconds; j++ {
				received[i] += data.MeasBytes[i][j]
			}
			total += received[i]
		}
		if total > 0 {
			for i, got := range received {
				if i >= len(alloc.PerMeasurerBps) || alloc.PerMeasurerBps[i] <= 0 {
					continue
				}
				want := alloc.PerMeasurerBps[i] / alloc.TotalBps
				skew := math.Abs(got/total-want) / want
				if skew > rep.MeasurerSkew {
					rep.MeasurerSkew = skew
				}
			}
		}
	}
	return rep
}
