package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"flashflow/internal/dirauth"
)

// BWAuth is a bandwidth authority running FlashFlow with its own
// measurement team (§4). It measures relays, maintains per-relay capacity
// estimates, and emits bandwidth files for DirAuth aggregation.
//
// A BWAuth is safe for concurrent MeasureTarget calls: the state mutex
// guards the estimate table, and the team gate serializes capacity
// allocation against the shared team while the measurements themselves run
// concurrently. internal/coord relies on this to execute a schedule slot's
// assignments on a worker pool.
type BWAuth struct {
	Name    string
	Team    []*Measurer
	Backend Backend
	Params  Params

	// mu guards estimates, priors, history, and anomalies.
	mu sync.Mutex
	// teamGate serializes allocation commit/release against Team.
	teamGate sync.Mutex
	// estimates holds the latest measured capacity estimate per relay —
	// the values published in the bandwidth file.
	estimates map[string]float64
	// names holds the keys of estimates in ascending order while
	// namesOK is set. Adding a key clears namesOK and the next view
	// re-sorts; Retain deletes keys from names in place; updating an
	// existing key's value leaves the order alone. A view is then a
	// linear copy in the order a bandwidth file keeps its entries.
	names   []string
	namesOK bool
	// priors holds externally seeded starting points (advertised
	// bandwidths, a coordinator's population estimates) for relays
	// without a positive estimate, the only ones MeasureTarget reads a
	// prior for; they are never published. An entry goes when the
	// relay's first positive estimate lands, and the map itself (nil
	// when empty) when its last entry does, so a measured population
	// keeps no second per-relay table.
	priors map[string]float64
	// history holds last-month measured capacities, feeding the
	// new-relay prior.
	history []float64
	// anomalies holds per-relay §5 defense counters (OutcomeAnomalies
	// plus echo failures), recorded by MeasureTarget. Long-lived callers
	// that must survive population churn (internal/coord) keep their own
	// windowed copy; this table follows Retain like the estimates.
	anomalies map[string]AnomalyCounts
}

// NewBWAuth creates a BWAuth with the given team and backend.
func NewBWAuth(name string, team []*Measurer, backend Backend, p Params) *BWAuth {
	return &BWAuth{
		Name:      name,
		Team:      team,
		Backend:   backend,
		Params:    p,
		estimates: make(map[string]float64),
		namesOK:   true,
		anomalies: make(map[string]AnomalyCounts),
	}
}

// Estimate returns the BWAuth's current capacity estimate for a relay.
func (b *BWAuth) Estimate(relayName string) (float64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.estimates[relayName]
	return v, ok
}

// SetEstimate seeds a prior estimate (e.g. from a previous period). The
// value is treated as a real estimate: it feeds the measurement prior and
// is published in the bandwidth file.
func (b *BWAuth) SetEstimate(relayName string, bps float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.setEstimateLocked(relayName, bps)
}

// setEstimateLocked stores an estimate; b.mu must be held. A positive
// estimate retires the relay's prior, which MeasureTarget no longer
// reads.
func (b *BWAuth) setEstimateLocked(relayName string, bps float64) {
	if _, ok := b.estimates[relayName]; !ok {
		b.namesOK = false
	}
	b.estimates[relayName] = bps
	if bps > 0 && b.priors != nil {
		delete(b.priors, relayName)
		// Go maps never shrink: release the buckets once the last prior
		// goes, or a map that once held a whole population keeps them.
		if len(b.priors) == 0 {
			b.priors = nil
		}
	}
}

// SetPrior seeds a measurement starting point for a relay without making
// it publishable: the doubling loop uses it as z0 until the relay is
// actually measured, but BandwidthFile never emits it. The continuous
// coordinator seeds population estimates this way so a relay that fails
// every measurement attempt is not reported with a fabricated capacity.
// A relay that already has a positive estimate starts from that
// estimate, so the call is a no-op for it.
func (b *BWAuth) SetPrior(relayName string, bps float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.estimates[relayName] > 0 {
		return
	}
	if b.priors == nil {
		b.priors = make(map[string]float64)
	}
	b.priors[relayName] = bps
}

// Retain drops estimates, priors, and anomaly counters for every relay
// keep rejects, so a long-lived deployment stops publishing relays that
// left the consensus and does not grow its tables across population
// churn. Callers that need anomaly evidence to survive churn (so a
// flapping liar cannot reset its record by briefly departing) keep their
// own windowed copy — internal/coord retains departed relays' counters
// for a configurable number of rounds before forgetting them.
func (b *BWAuth) Retain(keep func(relayName string) bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	dropped := false
	for name := range b.estimates {
		if !keep(name) {
			delete(b.estimates, name)
			dropped = true
		}
	}
	if dropped && b.namesOK {
		b.names = slices.DeleteFunc(b.names, func(name string) bool { return !keep(name) })
	}
	for name := range b.priors {
		if !keep(name) {
			delete(b.priors, name)
		}
	}
	if len(b.priors) == 0 {
		b.priors = nil
	}
	for name := range b.anomalies {
		if !keep(name) {
			delete(b.anomalies, name)
		}
	}
}

// Anomalies returns the accumulated §5 anomaly counters for a relay.
func (b *BWAuth) Anomalies(relayName string) (AnomalyCounts, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a, ok := b.anomalies[relayName]
	return a, ok
}

// AllAnomalies returns a copy of every relay's anomaly counters.
func (b *BWAuth) AllAnomalies() map[string]AnomalyCounts {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]AnomalyCounts, len(b.anomalies))
	for name, a := range b.anomalies {
		out[name] = a
	}
	return out
}

// recordAnomalies folds one outcome's evidence into the relay's record.
func (b *BWAuth) recordAnomalies(relayName string, c AnomalyCounts) {
	if c.Total() == 0 {
		return
	}
	b.mu.Lock()
	cur := b.anomalies[relayName]
	cur.Add(c)
	b.anomalies[relayName] = cur
	b.mu.Unlock()
}

// MeasureTarget measures one relay, using the stored estimate as the old-
// relay prior or the percentile prior for new relays, and records the
// result. Cancelling ctx tears down the in-flight slot promptly; a
// partial estimate salvaged from the interrupted slot is still recorded.
func (b *BWAuth) MeasureTarget(ctx context.Context, relayName string) (MeasureOutcome, error) {
	b.mu.Lock()
	z0, ok := b.estimates[relayName]
	if !ok || z0 <= 0 {
		z0, ok = b.priors[relayName]
		if !ok || z0 <= 0 {
			z0 = NewRelayPrior(b.history, b.Params)
		}
	}
	b.mu.Unlock()
	out, err := MeasureRelayGuarded(ctx, b.Backend, b.Team, &b.teamGate, relayName, z0, b.Params)
	counts := OutcomeAnomalies(out, b.Params)
	if errors.Is(err, ErrMeasurementFailed) {
		counts.EchoFailures++
	}
	b.recordAnomalies(relayName, counts)
	if err != nil {
		return out, err
	}
	if out.EstimateBps > 0 {
		b.mu.Lock()
		b.setEstimateLocked(relayName, out.EstimateBps)
		b.history = append(b.history, out.EstimateBps)
		// Keep the history bounded to roughly its "last month" intent: a
		// long-lived coordinator would otherwise grow it (and slow the
		// percentile in NewRelayPrior) without limit. Trimming at 2× and
		// keeping the newest half amortizes the copy.
		if len(b.history) > 2*maxHistory {
			b.history = append(b.history[:0:0], b.history[len(b.history)-maxHistory:]...)
		}
		b.mu.Unlock()
	}
	return out, nil
}

// maxHistory bounds the retained measurement history feeding the
// new-relay prior.
const maxHistory = 16384

// MeasureAll measures every named relay in order, returning per-relay
// outcomes. Relays whose measurement errors (e.g. echo-verification
// failure) are recorded with a zero estimate and the error.
func (b *BWAuth) MeasureAll(ctx context.Context, relayNames []string) (map[string]MeasureOutcome, map[string]error) {
	outcomes := make(map[string]MeasureOutcome, len(relayNames))
	errs := make(map[string]error)
	for _, name := range relayNames {
		out, err := b.MeasureTarget(ctx, name)
		if err != nil {
			errs[name] = fmt.Errorf("bwauth %s: %w", b.Name, err)
			continue
		}
		outcomes[name] = out
	}
	return outcomes, errs
}

// BandwidthFile exports the BWAuth's current estimates as a bandwidth
// file: FlashFlow reports the capacity estimate as both the weight and the
// capacity value (Table 2: FlashFlow provides capacity values directly).
func (b *BWAuth) BandwidthFile(at time.Duration) *dirauth.BandwidthFile {
	b.mu.Lock()
	if !b.namesOK {
		b.names = b.names[:0]
		for name := range b.estimates {
			b.names = append(b.names, name)
		}
		slices.Sort(b.names)
		b.namesOK = true
	}
	entries := make([]dirauth.BandwidthEntry, len(b.names))
	for i, name := range b.names {
		est := b.estimates[name]
		entries[i] = dirauth.BandwidthEntry{Name: name, WeightBps: est, CapacityBps: est}
	}
	b.mu.Unlock()
	return dirauth.NewBandwidthFile(b.Name, at, entries)
}

// RunPeriodResult summarizes one measurement period across BWAuths.
type RunPeriodResult struct {
	// MedianEstimates is the per-relay median across BWAuths — the value
	// the DirAuths put in the consensus.
	MedianEstimates map[string]float64
	// PerBWAuth holds each BWAuth's raw outcomes.
	PerBWAuth []map[string]MeasureOutcome
	// Errors collects measurement failures keyed by "bwauth/relay".
	Errors map[string]error
}

// RunPeriod has every BWAuth measure every relay once (the §4.3 schedule
// guarantees each relay one slot per BWAuth per period; here the slots'
// effects are captured by the backends) and aggregates the medians.
func RunPeriod(ctx context.Context, auths []*BWAuth, relayNames []string) RunPeriodResult {
	res := RunPeriodResult{
		MedianEstimates: make(map[string]float64, len(relayNames)),
		Errors:          make(map[string]error),
	}
	files := make([]*dirauth.BandwidthFile, 0, len(auths))
	for _, a := range auths {
		outcomes, errs := a.MeasureAll(ctx, relayNames)
		res.PerBWAuth = append(res.PerBWAuth, outcomes)
		for relayName, err := range errs {
			res.Errors[a.Name+"/"+relayName] = err
		}
		files = append(files, a.BandwidthFile(0))
	}
	for name, capBps := range dirauth.MedianCapacities(files) {
		res.MedianEstimates[name] = capBps
	}
	return res
}
