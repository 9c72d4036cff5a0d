package core

// BuildScheduleReference is the seed O(R·S)-per-BWAuth schedule builder,
// retained verbatim in spirit as the baseline the indexed ScheduleBuilder
// is measured and property-tested against: for every placement it
// re-scans all S slots into a fresh candidate slice and draws uniformly
// from it, exactly as the original implementation did.
//
// It uses the same per-BWAuth derived RNG streams and the same placement
// order (old relays need-descending, new relays FCFS) as ScheduleBuilder,
// and consumes each stream identically — one Intn per placed old relay,
// over the same feasible count, selecting the same k-th slot in slot
// order — so the two builders produce byte-identical schedules. The
// equivalence property tests in schedule_equiv_test.go and the
// BenchmarkScheduleBuild speedup gate both rely on this.
//
// The returned Schedule carries no relay index (SlotOf falls back to the
// linear scan), mirroring the seed data structure.
func BuildScheduleReference(seed []byte, relays []RelayEstimate, teamCapBps []float64, p Params) (*Schedule, error) {
	if len(teamCapBps) == 0 {
		return nil, ErrBadScheduleInput
	}
	numSlots := p.SlotsPerPeriod()
	if numSlots <= 0 {
		return nil, ErrBadScheduleInput
	}
	var order orderScratch
	order.compute(relays, p)

	s := &Schedule{NumSlots: numSlots, PerBWAuth: make([][][]Assignment, len(teamCapBps))}
	unsched := make([]bool, len(relays))
	for b := range teamCapBps {
		s.PerBWAuth[b] = make([][]Assignment, numSlots)
		remaining := make([]float64, numSlots)
		for i := range remaining {
			remaining[i] = teamCapBps[b]
		}
		rng := scheduleRNG(seed, b)

		place := func(ri int32, random bool) bool {
			need := order.needs[ri]
			candidates := make([]int, 0, numSlots)
			for slot := 0; slot < numSlots; slot++ {
				if remaining[slot] >= need {
					candidates = append(candidates, slot)
					if !random {
						break // FCFS: earliest slot wins
					}
				}
			}
			if len(candidates) == 0 {
				return false
			}
			slot := candidates[0]
			if random {
				slot = candidates[rng.Intn(len(candidates))]
			}
			remaining[slot] -= need
			s.PerBWAuth[b][slot] = append(s.PerBWAuth[b][slot], Assignment{Relay: relays[ri].Name, NeedBps: need, Index: int(ri)})
			return true
		}

		for _, pr := range order.pairs {
			if !place(pr.idx, true) {
				unsched[pr.idx] = true
			}
		}
		for _, ri := range order.freshIdx {
			if !place(ri, false) {
				unsched[ri] = true
			}
		}
	}
	for i, r := range relays {
		if unsched[i] {
			s.Unscheduled = append(s.Unscheduled, r.Name)
		}
	}
	return s, nil
}
