package core

import (
	"context"
	"errors"
	"fmt"

	"flashflow/internal/stats"
)

// This file implements the §5 Limitations mitigation for Sybil relays:
// "Pairs of MyFamily relays (or suspected Sybils) can be measured
// simultaneously with FlashFlow to determine if they share the same Tor
// capacity, and then the measured capacity averaged over the members of a
// connected set."
//
// The test: measure each suspect alone, then measure the pair
// simultaneously. Two relays on independent machines yield a joint
// capacity close to the sum of their solo capacities; two relays sharing a
// machine yield a joint capacity close to either solo capacity, because
// the machine's capacity is demonstrated twice but exists once.

// PairBackend measures two targets in the same slot. The SimBackend-based
// implementation below shares the relay model between co-located names.
type PairBackend interface {
	Backend
	// RunPairMeasurement measures both targets simultaneously, splitting
	// the allocation evenly between them, and returns each target's
	// per-second measurement bytes. Implementations honor ctx exactly as
	// Backend.RunMeasurement does.
	RunPairMeasurement(ctx context.Context, targetA, targetB string, alloc Allocation, seconds int) (MeasurementData, MeasurementData, error)
}

// FamilyVerdict is the outcome of a co-location test.
type FamilyVerdict struct {
	RelayA, RelayB string
	// SoloBpsA/B are the individual capacity estimates.
	SoloBpsA, SoloBpsB float64
	// JointBps is the combined capacity when measured simultaneously.
	JointBps float64
	// SharedMachine is true when the joint capacity is much closer to a
	// single solo capacity than to their sum.
	SharedMachine bool
	// AdjustedBps is the per-relay capacity to credit: solo estimates for
	// independent relays, the joint capacity split evenly for co-located
	// ones (the paper's "averaged over the members").
	AdjustedBpsA, AdjustedBpsB float64
}

// ErrPairUnsupported is returned when the backend cannot measure pairs.
var ErrPairUnsupported = errors.New("core: backend does not support pair measurement")

// sharedThreshold classifies a pair as co-located when the joint capacity
// is below this fraction of the solo sum. Independent machines measure
// near 1.0; a shared machine measures near max(solo)/(soloA+soloB) ≈ 0.5
// for equal-capacity Sybils.
const sharedThreshold = 0.75

// TestFamilyPair measures two suspect relays individually and then
// simultaneously, and classifies whether they share a machine.
func TestFamilyPair(ctx context.Context, backend Backend, team []*Measurer, relayA, relayB string, priorA, priorB float64, p Params) (FamilyVerdict, error) {
	pair, ok := backend.(PairBackend)
	if !ok {
		return FamilyVerdict{}, ErrPairUnsupported
	}
	v := FamilyVerdict{RelayA: relayA, RelayB: relayB}

	outA, err := MeasureRelay(ctx, backend, team, relayA, priorA, p)
	if err != nil {
		return v, fmt.Errorf("solo %s: %w", relayA, err)
	}
	v.SoloBpsA = outA.EstimateBps
	outB, err := MeasureRelay(ctx, backend, team, relayB, priorB, p)
	if err != nil {
		return v, fmt.Errorf("solo %s: %w", relayB, err)
	}
	v.SoloBpsB = outB.EstimateBps

	// Joint slot: allocate for the sum of the solo estimates.
	need := RequiredBps(v.SoloBpsA+v.SoloBpsB, p)
	if cap := TeamCapacityBps(team); need > cap {
		need = cap
	}
	alloc, err := AllocateGreedy(team, need, p)
	if err != nil {
		return v, err
	}
	dataA, dataB, err := pair.RunPairMeasurement(ctx, relayA, relayB, alloc, p.SlotSeconds)
	if err != nil {
		return v, fmt.Errorf("pair measurement: %w", err)
	}
	aggA, err := aggregateEstimate(dataA, p.Ratio)
	if err != nil {
		return v, err
	}
	aggB, err := aggregateEstimate(dataB, p.Ratio)
	if err != nil {
		return v, err
	}
	v.JointBps = (aggA.EstimateBytesPerSec + aggB.EstimateBytesPerSec) * 8

	soloSum := v.SoloBpsA + v.SoloBpsB
	if soloSum > 0 && v.JointBps < sharedThreshold*soloSum {
		v.SharedMachine = true
		v.AdjustedBpsA = v.JointBps / 2
		v.AdjustedBpsB = v.JointBps / 2
	} else {
		v.AdjustedBpsA = v.SoloBpsA
		v.AdjustedBpsB = v.SoloBpsB
	}
	return v, nil
}

// ColocateTargets marks two SimBackend targets as sharing one machine: the
// shared relay model means capacity demonstrated by one is unavailable to
// the other within the same slot.
func (b *SimBackend) ColocateTargets(nameA, nameB string) error {
	a, ok := b.Targets[nameA]
	if !ok {
		return fmt.Errorf("core: unknown target %q", nameA)
	}
	bb, ok := b.Targets[nameB]
	if !ok {
		return fmt.Errorf("core: unknown target %q", nameB)
	}
	bb.Relay = a.Relay
	return nil
}

var _ PairBackend = (*SimBackend)(nil)

// RunPairMeasurement implements PairBackend: the allocation is split
// evenly between the two targets; co-located targets share a relay model,
// so their joint throughput is bounded by the one machine.
func (b *SimBackend) RunPairMeasurement(ctx context.Context, targetA, targetB string, alloc Allocation, seconds int) (MeasurementData, MeasurementData, error) {
	half := Allocation{
		PerMeasurerBps: make([]float64, len(alloc.PerMeasurerBps)),
		Processes:      alloc.Processes,
		SocketsPer:     make([]int, len(alloc.SocketsPer)),
		TotalBps:       alloc.TotalBps / 2,
	}
	for i := range alloc.PerMeasurerBps {
		half.PerMeasurerBps[i] = alloc.PerMeasurerBps[i] / 2
		half.SocketsPer[i] = alloc.SocketsPer[i] / 2
		if alloc.SocketsPer[i] > 0 && half.SocketsPer[i] < 1 {
			half.SocketsPer[i] = 1
		}
	}
	ta, ok := b.Targets[targetA]
	if !ok {
		return MeasurementData{}, MeasurementData{}, fmt.Errorf("core: unknown target %q", targetA)
	}
	tb, ok := b.Targets[targetB]
	if !ok {
		return MeasurementData{}, MeasurementData{}, fmt.Errorf("core: unknown target %q", targetB)
	}
	shared := ta.Relay == tb.Relay

	if !shared {
		dataA, err := b.RunMeasurement(ctx, targetA, half, seconds, nil)
		if err != nil {
			return MeasurementData{}, MeasurementData{}, err
		}
		dataB, err := b.RunMeasurement(ctx, targetB, half, seconds, nil)
		if err != nil {
			return MeasurementData{}, MeasurementData{}, err
		}
		return dataA, dataB, nil
	}
	// Shared machine: run one measurement against the machine with the
	// full allocation and attribute half of the demonstrated capacity to
	// each name — both suspects' traffic competes for the same relay.
	data, err := b.RunMeasurement(ctx, targetA, alloc, seconds, nil)
	if err != nil {
		return MeasurementData{}, MeasurementData{}, err
	}
	halfData := func() MeasurementData {
		out := MeasurementData{
			MeasBytes: make([][]float64, len(data.MeasBytes)),
			NormBytes: make([]float64, len(data.NormBytes)),
			Failed:    data.Failed,
		}
		for i := range data.MeasBytes {
			out.MeasBytes[i] = make([]float64, len(data.MeasBytes[i]))
			for j, v := range data.MeasBytes[i] {
				out.MeasBytes[i][j] = v / 2
			}
		}
		for j, v := range data.NormBytes {
			out.NormBytes[j] = v / 2
		}
		return out
	}
	return halfData(), halfData(), nil
}

// AdjustFamilyWeights applies verdicts to a set of capacity estimates,
// replacing co-located relays' estimates with their shares of the joint
// capacity. It returns the corrected total (the Sybil pair no longer
// counts its machine twice).
func AdjustFamilyWeights(estimates map[string]float64, verdicts []FamilyVerdict) float64 {
	for _, v := range verdicts {
		if v.SharedMachine {
			estimates[v.RelayA] = v.AdjustedBpsA
			estimates[v.RelayB] = v.AdjustedBpsB
		}
	}
	vals := make([]float64, 0, len(estimates))
	for _, e := range estimates {
		vals = append(vals, e)
	}
	return stats.Sum(vals)
}
