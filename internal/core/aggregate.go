package core

import (
	"errors"

	"flashflow/internal/stats"
)

// MeasurementData is the raw per-second data a BWAuth collects during one
// measurement slot (§4.1): for each measurer i and second j, the number of
// measurement bytes x_j^i relayed by the target back to that measurer; and
// for each second j, the number of normal-traffic bytes y_j the target
// claims to have relayed.
type MeasurementData struct {
	// MeasBytes[i][j] is measurer i's received measurement bytes in
	// second j.
	MeasBytes [][]float64
	// NormBytes[j] is the target's reported normal bytes in second j.
	NormBytes []float64
	// Failed indicates a measurer reported an echo-verification failure;
	// the BWAuth discards the measurement (§4.1).
	Failed bool
	// Incomplete indicates one or more measurers dropped out mid-slot
	// while the rest kept measuring: the per-second series undercount the
	// relay's demonstrated capacity, so the data is an honest lower bound
	// — usable to drive the §4.2 doubling loop, never to conclude a
	// measurement.
	Incomplete bool
	// SentCells and LostCells carry the datagram data plane's loss
	// accounting, summed across the team (zero on the stream plane, where
	// nothing can be silently lost). Lost cells already fail to count
	// toward MeasBytes; these totals exist so operators can tell a slow
	// relay from a lossy path.
	SentCells int64
	LostCells int64
}

// Truncate trims every per-second series to the first n seconds — the
// shape backends return when a slot is cancelled after n completed
// seconds. The Failed and Incomplete flags are preserved.
func (d MeasurementData) Truncate(n int) MeasurementData {
	if n < 0 {
		n = 0
	}
	for i := range d.MeasBytes {
		if len(d.MeasBytes[i]) > n {
			d.MeasBytes[i] = d.MeasBytes[i][:n]
		}
	}
	if len(d.NormBytes) > n {
		d.NormBytes = d.NormBytes[:n]
	}
	return d
}

// AggregateResult is the outcome of aggregating one measurement slot.
type AggregateResult struct {
	// EstimateBytesPerSec is the capacity estimate z: the median of the
	// per-second totals.
	EstimateBytesPerSec float64
	// PerSecondTotals holds z_j = x_j + clamped y_j for each second.
	PerSecondTotals []float64
	// PerSecondMeas and PerSecondNorm are x_j and the clamped y_j series.
	PerSecondMeas []float64
	PerSecondNorm []float64
	// MeasOnlyMedian is the median of the per-second measurement bytes
	// x_j alone — the portion of the estimate the measurers verified by
	// receiving it, with no relay self-report contribution.
	MeasOnlyMedian float64
	// ClampedSeconds counts seconds where the relay's normal-traffic
	// report exceeded the ratio limit and was clamped — nonzero values
	// indicate either saturation or lying.
	ClampedSeconds int
	// RatioClamped marks an estimate that hit the estimate-level
	// 1/(1−r) invariant clamp (see RatioClampBound). For data whose
	// seconds passed through the per-second clamp above this can never
	// fire (the per-second clamp dominates pointwise, and the median is
	// monotone), so a set flag means the per-second accounting was
	// bypassed or inconsistent — itself an anomaly signal.
	RatioClamped bool
}

// Errors from aggregation.
var (
	ErrNoData            = errors.New("core: no measurement data")
	ErrMeasurementFailed = errors.New("core: measurement failed echo verification")
	ErrRaggedData        = errors.New("core: per-measurer series have different lengths")
)

// Aggregate implements the §4.1 aggregation: per-second sums of
// measurement traffic x_j = Σ_i x_j^i, clamping of reported normal traffic
// to y_j ≤ x_j·r/(1−r), per-second totals z_j = x_j + y_j, and the median
// estimate z = median(z_1…z_t).
//
// The clamp is the security mechanism limiting a lying relay to a factor
// 1/(1−r) inflation: the relay may fabricate normal-traffic reports, but
// the BWAuth never credits normal traffic beyond the r-ratio share implied
// by the measurement traffic it verified directly.
func Aggregate(data MeasurementData, ratio float64) (AggregateResult, error) {
	seconds, err := checkData(data)
	if err != nil {
		return AggregateResult{}, err
	}
	series := make([]float64, 3*seconds)
	meas := series[:seconds:seconds]
	norm := series[seconds : 2*seconds : 2*seconds]
	totals := series[2*seconds:]
	res := aggregate(data, ratio, meas, norm, totals)
	res.PerSecondMeas, res.PerSecondNorm, res.PerSecondTotals = meas, norm, totals
	return res, nil
}

// aggregateEstimate is Aggregate without the per-second series: the
// measurement loop needs only the estimate and its anomaly evidence, and
// for a slot of up to maxStackSeconds it aggregates in stack scratch.
func aggregateEstimate(data MeasurementData, ratio float64) (AggregateResult, error) {
	seconds, err := checkData(data)
	if err != nil {
		return AggregateResult{}, err
	}
	if seconds > maxStackSeconds {
		scratch := make([]float64, 2*seconds)
		return aggregate(data, ratio, scratch[:seconds], nil, scratch[seconds:]), nil
	}
	var meas, totals [maxStackSeconds]float64
	return aggregate(data, ratio, meas[:seconds], nil, totals[:seconds]), nil
}

// maxStackSeconds is the longest slot aggregateEstimate aggregates
// without allocating; the default slot is 30 s.
const maxStackSeconds = 64

// checkData returns the slot's length in seconds, or why it cannot be
// aggregated.
func checkData(data MeasurementData) (int, error) {
	if data.Failed {
		return 0, ErrMeasurementFailed
	}
	if len(data.MeasBytes) == 0 || len(data.MeasBytes[0]) == 0 {
		return 0, ErrNoData
	}
	seconds := len(data.MeasBytes[0])
	for _, series := range data.MeasBytes {
		if len(series) != seconds {
			return 0, ErrRaggedData
		}
	}
	if len(data.NormBytes) != 0 && len(data.NormBytes) != seconds {
		return 0, ErrRaggedData
	}
	return seconds, nil
}

// aggregate is the §4.1 math over checked data in one pass. It fills
// meas and totals (and norm, when non-nil) with len(meas) == the slot's
// seconds, and returns the result without its series.
func aggregate(data MeasurementData, ratio float64, meas, norm, totals []float64) AggregateResult {
	var res AggregateResult
	seconds := len(meas)
	hasNorm := len(data.NormBytes) == seconds
	anyNorm := false
	clampFactor := ratio / (1 - ratio)
	for j := 0; j < seconds; j++ {
		var x float64
		for i := range data.MeasBytes {
			x += data.MeasBytes[i][j]
		}
		var y float64
		if hasNorm {
			y = data.NormBytes[j]
		}
		limit := x * clampFactor
		if y > limit {
			y = limit
			res.ClampedSeconds++
		}
		if y != 0 {
			anyNorm = true
		}
		meas[j] = x
		if norm != nil {
			norm[j] = y
		}
		totals[j] = x + y
	}
	res.EstimateBytesPerSec = stats.Median(totals)
	if anyNorm {
		res.MeasOnlyMedian = stats.Median(meas)
	} else {
		// Every y_j is zero, so z_j = x_j + 0 = x_j bit for bit and the
		// two series share their median.
		res.MeasOnlyMedian = res.EstimateBytesPerSec
	}
	// Estimate-level enforcement of the §5 inflation invariant: no matter
	// how the per-second series were produced, the published estimate
	// never exceeds 1/(1−r) times the measurement traffic the measurers
	// verified by receiving it. The relative epsilon keeps float rounding
	// between x + x·r/(1−r) and x/(1−r) from reading as a violation.
	if bound := RatioClampBound(res.MeasOnlyMedian, ratio); res.EstimateBytesPerSec > bound*(1+1e-9) {
		res.EstimateBytesPerSec = bound
		res.RatioClamped = true
	}
	return res
}

// RatioClampBound returns the §5 ceiling on a capacity estimate given the
// median verified measurement throughput: measMedian/(1−r) bytes/s, i.e.
// the relay is credited at most r-ratio worth of claimed normal traffic on
// top of what the measurers received. Together with the per-second clamp
// in Aggregate this is the invariant that bounds a lying relay's inflation
// to 1/(1−r): the per-second clamp guarantees z_j ≤ x_j/(1−r) pointwise,
// medians are monotone under pointwise domination, so the estimate-level
// bound holds by construction for per-second-clamped data — enforcing it
// again here protects any future ingest path that skips the per-second
// accounting, and flags inconsistent data via RatioClamped.
func RatioClampBound(measMedianBytesPerSec, ratio float64) float64 {
	return measMedianBytesPerSec / (1 - ratio)
}

// EstimateAccepted implements the §4.2 acceptance condition: the estimate
// z (bytes/s) is conclusive if z < Σ_i a_i · (1−ε1)/m, i.e. small enough
// relative to the allocated measurer capacity that it could only result
// from a true capacity close to z. allocatedBps is Σ a_i in bits/s.
func EstimateAccepted(zBytesPerSec, allocatedBps float64, p Params) bool {
	zBps := zBytesPerSec * 8
	return zBps < allocatedBps*(1-p.Eps1)/p.Multiplier
}
