// Package torflow implements the TorFlow baseline (§2, [30]): the
// load-balancing system FlashFlow is evaluated against. TorFlow combines
// relays' self-reported advertised bandwidths with active 2-hop download
// measurements, producing weight = advertised × (speed / mean speed).
//
// Two properties of TorFlow matter for the paper's comparison and are
// modelled faithfully:
//
//  1. it trusts relay self-reports, so a malicious relay inflates its
//     weight almost arbitrarily (89–177× demonstrated in prior work);
//  2. its active measurements ride on shared circuits and client load, so
//     even honest weights are noisy and systematically under-weight
//     under-utilized relays (§3's 15–25 % network weight error).
package torflow

import (
	"errors"
	"math"
	"math/rand"
	"time"

	"flashflow/internal/dirauth"
	"flashflow/internal/stats"
)

// RelayState is TorFlow's view of one relay.
type RelayState struct {
	Name string
	// AdvertisedBps is the self-reported advertised bandwidth — trusted
	// by TorFlow (the root vulnerability).
	AdvertisedBps float64
	// CapacityBps is the relay's true capacity (used by the measurement
	// model, unknown to TorFlow).
	CapacityBps float64
	// UtilizationFrac is the relay's current load fraction; busy relays
	// measure slower.
	UtilizationFrac float64
	// Malicious relays throttle client traffic but reserve capacity for
	// measurement circuits, which they can detect (§1, [25, 36]).
	Malicious bool
}

// ScannerConfig tunes the measurement model.
type ScannerConfig struct {
	// Probes per relay; TorFlow downloads one of 13 fixed-size files per
	// probe circuit.
	Probes int
	// NoiseSigma is the lognormal sigma of per-probe multiplicative noise
	// (partner relay speed, client congestion).
	NoiseSigma float64
	// Seed drives the deterministic RNG.
	Seed int64
}

// DefaultScannerConfig returns the model defaults.
func DefaultScannerConfig(seed int64) ScannerConfig {
	return ScannerConfig{Probes: 4, NoiseSigma: 0.55, Seed: seed}
}

// Scanner runs TorFlow measurements.
type Scanner struct {
	cfg ScannerConfig
	rng *rand.Rand
}

// NewScanner creates a scanner.
func NewScanner(cfg ScannerConfig) *Scanner {
	if cfg.Probes <= 0 {
		cfg.Probes = 4
	}
	return &Scanner{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// ErrNoRelays is returned for an empty relay set.
var ErrNoRelays = errors.New("torflow: no relays to scan")

// MeasuredSpeed models one active download through a relay: the free share
// of the relay's capacity divided among the probe circuit and existing
// load, jittered by partner-relay and path noise. A malicious relay
// detects the measurement circuit and gives it full capacity.
func (s *Scanner) MeasuredSpeed(r RelayState, partner RelayState) float64 {
	free := func(x RelayState) float64 {
		if x.Malicious {
			// Reserves everything for the (detectable) measurement.
			return x.CapacityBps
		}
		u := x.UtilizationFrac
		if u < 0 {
			u = 0
		}
		if u > 0.95 {
			u = 0.95
		}
		return x.CapacityBps * (1 - u)
	}
	speed := math.Min(free(r), free(partner))
	noise := math.Exp(s.rng.NormFloat64() * s.cfg.NoiseSigma)
	return speed * noise
}

// ScanResult carries a full TorFlow pass.
type ScanResult struct {
	// SpeedBps is each relay's mean measured speed, index-aligned with
	// the input.
	SpeedBps []float64
	// WeightBps is the final per-relay weight:
	// advertised × speed/meanSpeed.
	WeightBps []float64
}

// Scan measures every relay and computes weights (§2's TorFlow pipeline).
func (s *Scanner) Scan(relays []RelayState) (ScanResult, error) {
	if len(relays) == 0 {
		return ScanResult{}, ErrNoRelays
	}
	res := ScanResult{
		SpeedBps:  make([]float64, len(relays)),
		WeightBps: make([]float64, len(relays)),
	}
	for i, r := range relays {
		var sum float64
		for k := 0; k < s.cfg.Probes; k++ {
			partner := relays[s.rng.Intn(len(relays))]
			sum += s.MeasuredSpeed(r, partner)
		}
		res.SpeedBps[i] = sum / float64(s.cfg.Probes)
	}
	mean := stats.Mean(res.SpeedBps)
	if mean <= 0 {
		return res, errors.New("torflow: degenerate mean speed")
	}
	for i, r := range relays {
		res.WeightBps[i] = r.AdvertisedBps * (res.SpeedBps[i] / mean)
	}
	return res, nil
}

// BandwidthFile exports a scan as a weights-only bandwidth file (TorFlow
// provides no capacity values — Table 2).
func (s *Scanner) BandwidthFile(at time.Duration, relays []RelayState, res ScanResult) *dirauth.BandwidthFile {
	entries := make([]dirauth.BandwidthEntry, len(relays))
	for i, r := range relays {
		entries[i] = dirauth.BandwidthEntry{Name: r.Name, WeightBps: res.WeightBps[i]}
	}
	return dirauth.NewBandwidthFile("torflow", at, entries)
}

// AttackAdvantage quantifies the self-report inflation attack: a malicious
// relay multiplies its advertised bandwidth by lieFactor and reserves all
// capacity for measurement circuits. It returns the factor by which the
// relay's normalized weight exceeds its fair (capacity-proportional)
// share. Prior work demonstrated 89–177× (§8, Table 2).
func (s *Scanner) AttackAdvantage(honest []RelayState, attacker RelayState, lieFactor float64) (float64, error) {
	mal := attacker
	mal.Malicious = true
	mal.AdvertisedBps = attacker.CapacityBps * lieFactor
	all := append(append([]RelayState(nil), honest...), mal)
	res, err := s.Scan(all)
	if err != nil {
		return 0, err
	}
	totalW := stats.Sum(res.WeightBps)
	wFrac := res.WeightBps[len(all)-1] / totalW

	var totalCap float64
	for _, r := range all {
		totalCap += r.CapacityBps
	}
	fairFrac := attacker.CapacityBps / totalCap
	if fairFrac == 0 {
		return 0, errors.New("torflow: attacker with zero capacity")
	}
	return wFrac / fairFrac, nil
}
