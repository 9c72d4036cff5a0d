// Package core implements FlashFlow, the paper's primary contribution: a
// system that securely, accurately, and quickly measures the capacity of
// Tor relays (§4). It contains the single-measurement protocol driver and
// aggregation (§4.1), measurer-capacity allocation and the measure-relay
// loop (§4.2), the network measurement schedule (§4.3), the multi-BWAuth
// pipeline, and the adversary models analyzed in §5.
package core

import (
	"errors"
	"fmt"
	"time"
)

// Params holds FlashFlow's tunable parameters. Defaults are the paper's
// recommended settings (§6.1, Appendix E).
type Params struct {
	// Sockets is the constant total number of TCP measurement sockets s
	// used across all measurers (Appendix E.1 selects 160).
	Sockets int
	// Multiplier is the base multiplier m: a relay of estimated capacity
	// z0 is measured with m·z0-grade capacity before error headroom
	// (Appendix E.2 selects 2.25).
	Multiplier float64
	// SlotSeconds is the measurement slot length t in seconds (Appendix
	// E.3 selects 30; the result is the median of per-second sums).
	SlotSeconds int
	// Eps1 and Eps2 are the error bounds ε1 = 0.20 and ε2 = 0.05
	// (Appendix E.5): an accurate estimate z for true capacity x satisfies
	// (1−ε1)x < z < (1+ε2)x.
	Eps1, Eps2 float64
	// Ratio is the maximum fraction r of total traffic that may be normal
	// traffic during a measurement (§6.2 recommends 0.25).
	Ratio float64
	// CheckProb is the probability p of recording and verifying a sent
	// cell's echoed contents (§4.1 suggests 1e-5).
	CheckProb float64
	// Period is the measurement period length (§4.3 uses 24 h).
	Period time.Duration
	// NewRelayPercentile is the percentile of last-month measured
	// capacities used as the prior for new relays (§4.2 uses the 75th).
	NewRelayPercentile float64
	// MaxMeasureAttempts bounds the doubling loop per relay per period.
	MaxMeasureAttempts int
	// DisableEarlyAbort turns off the streaming early-abort rule and runs
	// every measurement slot to its full SlotSeconds length, as the
	// original batch pipeline did. The default (false) aborts a slot as
	// soon as a majority of its seconds prove the estimate cannot be
	// accepted for the current allocation, jumping straight to the next
	// doubling step. Kept as a knob for A/B comparison
	// (internal/coord's TestEarlyAbortSavesSlotSeconds) and for operators
	// who prefer fixed-length slots.
	DisableEarlyAbort bool
}

// DefaultParams returns the paper's recommended parameter settings.
func DefaultParams() Params {
	return Params{
		Sockets:            160,
		Multiplier:         2.25,
		SlotSeconds:        30,
		Eps1:               0.20,
		Eps2:               0.05,
		Ratio:              0.25,
		CheckProb:          1e-5,
		Period:             24 * time.Hour,
		NewRelayPercentile: 75,
		MaxMeasureAttempts: 8,
	}
}

// ExcessFactor returns f = m(1+ε2)/(1−ε1), the total measurer capacity
// allocated per unit of estimated relay capacity (§4.2).
func (p Params) ExcessFactor() float64 {
	return p.Multiplier * (1 + p.Eps2) / (1 - p.Eps1)
}

// ExcessFactorPaper7 is the excess factor value quoted in §7 ("due to the
// excess factor f = 2.84"), which differs slightly from the §4.2 formula
// with the default parameters (2.953125). The schedule experiments report
// both; see DESIGN.md §4.
const ExcessFactorPaper7 = 2.84

// MaxInflation returns 1/(1−r), the maximum factor by which a malicious
// relay can inflate its capacity estimate by lying about normal traffic
// (§5). With the default r = 0.25 this is 1.33.
func (p Params) MaxInflation() float64 {
	return 1 / (1 - p.Ratio)
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	switch {
	case p.Sockets <= 0:
		return errors.New("core: Sockets must be positive")
	case p.Multiplier < 1:
		return errors.New("core: Multiplier must be >= 1")
	case p.SlotSeconds <= 0:
		return errors.New("core: SlotSeconds must be positive")
	case p.Eps1 < 0 || p.Eps1 >= 1:
		return fmt.Errorf("core: Eps1 out of range: %v", p.Eps1)
	case p.Eps2 < 0:
		return fmt.Errorf("core: Eps2 out of range: %v", p.Eps2)
	case p.Ratio < 0 || p.Ratio >= 1:
		return fmt.Errorf("core: Ratio out of range: %v", p.Ratio)
	case p.CheckProb < 0 || p.CheckProb > 1:
		return fmt.Errorf("core: CheckProb out of range: %v", p.CheckProb)
	case p.Period <= 0:
		return errors.New("core: Period must be positive")
	case p.NewRelayPercentile <= 0 || p.NewRelayPercentile > 100:
		return fmt.Errorf("core: NewRelayPercentile out of range: %v", p.NewRelayPercentile)
	case p.MaxMeasureAttempts <= 0:
		return errors.New("core: MaxMeasureAttempts must be positive")
	}
	return nil
}

// SlotsPerPeriod returns the number of t-second measurement slots in one
// measurement period.
func (p Params) SlotsPerPeriod() int {
	return int(p.Period / (time.Duration(p.SlotSeconds) * time.Second))
}
