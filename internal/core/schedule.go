package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
)

// RelayEstimate is a scheduler input: a relay and its capacity prior.
type RelayEstimate struct {
	Name        string
	EstimateBps float64
	// New marks relays without a reliable prior (§4.2); they are
	// scheduled after all old relays, first-come first-served.
	New bool
}

// Assignment is one scheduled measurement.
type Assignment struct {
	Relay   string
	NeedBps float64
	// Index is the relay's position in the population the schedule was
	// built from, so a caller can keep dense per-relay state without
	// looking the name up.
	Index int
}

// Schedule maps (BWAuth, slot) to the measurements that start there.
type Schedule struct {
	NumSlots int
	// PerBWAuth[b][slot] lists the assignments of BWAuth b in that slot.
	PerBWAuth [][][]Assignment
	// Unscheduled lists relays that could not be placed on at least one
	// BWAuth (insufficient capacity in every slot), in input order.
	Unscheduled []string

	// relayOrd/slotBy form the precomputed relay→(bwauth,slot) index:
	// relayOrd maps a relay name to its ordinal in the builder's input,
	// slotBy[b][ordinal] is that relay's slot at BWAuth b (-1 if
	// unplaced). Built by ScheduleBuilder; hand-assembled Schedules
	// leave them nil and SlotOf falls back to a linear scan.
	relayOrd    map[string]int32
	slotBy      [][]int32
	assignments int
}

// SlotOf returns the slot in which the given BWAuth measures the relay, or
// -1 if it does not. Builder-produced schedules answer in O(1) via the
// relay index; schedules assembled by hand fall back to scanning.
func (s *Schedule) SlotOf(bwauth int, relayName string) int {
	if bwauth < 0 || bwauth >= len(s.PerBWAuth) {
		return -1
	}
	if s.relayOrd != nil {
		ord, ok := s.relayOrd[relayName]
		if !ok {
			return -1
		}
		return int(s.slotBy[bwauth][ord])
	}
	for slot, as := range s.PerBWAuth[bwauth] {
		for _, a := range as {
			if a.Relay == relayName {
				return slot
			}
		}
	}
	return -1
}

// Assignments returns the total number of placed (BWAuth, relay, slot)
// assignments — the size of a round's work list. Callers use it to
// preallocate per-round job buffers.
func (s *Schedule) Assignments() int {
	if s.relayOrd != nil {
		return s.assignments
	}
	total := 0
	for _, slots := range s.PerBWAuth {
		for _, as := range slots {
			total += len(as)
		}
	}
	return total
}

// scheduleRNG derives BWAuth b's deterministic placement stream from the
// shared random seed (§4.3: pseudorandom bits extracted from a
// collectively generated seed). Every BWAuth derives every stream the
// same way, so all of them compute the identical schedule; making the
// streams per-BWAuth (rather than one interleaved stream, as the seed
// implementation did) is what lets the builder construct each BWAuth's
// slots on its own core.
func scheduleRNG(seed []byte, bwauth int) *rand.Rand {
	h := sha256.New()
	h.Write(seed)
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(bwauth))
	h.Write(b[:])
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(sum[:8]))))
}

// ErrBadScheduleInput flags invalid scheduler arguments.
var ErrBadScheduleInput = errors.New("core: bad schedule input")

// BuildSchedule constructs the randomized measurement schedule of §4.3 for
// one period: for each old relay, each BWAuth's slot is drawn uniformly at
// random (without replacement across that BWAuth's capacity budget) from
// the slots with sufficient unallocated capacity. New relays are then
// placed in the earliest slots with room, in arrival order. teamCapBps[b]
// is BWAuth b's team capacity.
//
// This is a convenience wrapper over a fresh ScheduleBuilder; long-lived
// callers (the continuous coordinator) keep a builder and reuse its
// arenas across rounds.
func BuildSchedule(seed []byte, relays []RelayEstimate, teamCapBps []float64, p Params) (*Schedule, error) {
	return NewScheduleBuilder().Build(seed, relays, teamCapBps, p)
}

// ScheduleBuilder constructs §4.3 schedules using indexed slot structures
// (see slotIndex) in O((R+S)·log S) per BWAuth instead of the seed
// algorithm's O(R·S) scan, building the BWAuths' slot assignments in
// parallel — each BWAuth's RNG stream is independently derived from the
// shared seed, so sharding the build per BWAuth preserves determinism.
//
// A builder retains every internal arena (slot indexes, order buffers,
// the relay→ordinal map, and the returned Schedule's slot arrays) across
// Build calls, so a coordinator running one round per period performs no
// allocation proportional to R·S in steady state when the population is
// stable. The returned Schedule aliases those arenas: it is valid until
// the next Build call on the same builder. Use BuildSchedule for an
// independent snapshot.
//
// A builder is not safe for concurrent Build calls.
type ScheduleBuilder struct {
	sched    *Schedule
	ord      map[string]int32
	ordNames []string

	order   orderScratch
	unsched []bool
	perB    []*slotIndex
	failedB [][]int32
}

// NewScheduleBuilder returns an empty builder; arenas grow on first use.
func NewScheduleBuilder() *ScheduleBuilder { return &ScheduleBuilder{} }

// needPair carries a relay's capacity need next to its input ordinal so
// the old-phase sort compares in-cache values instead of gathering
// through an index slice.
type needPair struct {
	need float64
	idx  int32
}

// orderScratch holds the placement-order buffers shared by the indexed
// and reference builders: per-relay needs, old relays sorted by need
// descending (ties by name, so the order is a pure function of the relay
// set and not of consensus iteration order), and new relays in arrival
// order (FCFS, §4.2). Need-descending processing is what keeps the slot
// index's feasibility threshold monotone.
type orderScratch struct {
	needs    []float64
	pairs    []needPair
	freshIdx []int32
}

func (o *orderScratch) compute(relays []RelayEstimate, p Params) {
	if cap(o.needs) < len(relays) {
		o.needs = make([]float64, 0, len(relays))
		o.pairs = make([]needPair, 0, len(relays))
	}
	o.needs = o.needs[:0]
	o.pairs = o.pairs[:0]
	o.freshIdx = o.freshIdx[:0]
	for i, r := range relays {
		need := RequiredBps(r.EstimateBps, p)
		o.needs = append(o.needs, need)
		if r.New {
			o.freshIdx = append(o.freshIdx, int32(i))
		} else {
			o.pairs = append(o.pairs, needPair{need: need, idx: int32(i)})
		}
	}
	slices.SortFunc(o.pairs, func(a, b needPair) int {
		if a.need != b.need {
			if a.need > b.need {
				return -1
			}
			return 1
		}
		return strings.Compare(relays[a.idx].Name, relays[b.idx].Name)
	})
}

// Build constructs the schedule. See BuildSchedule for the semantics and
// ScheduleBuilder for the arena-reuse contract.
func (sb *ScheduleBuilder) Build(seed []byte, relays []RelayEstimate, teamCapBps []float64, p Params) (*Schedule, error) {
	if len(teamCapBps) == 0 {
		return nil, fmt.Errorf("%w: no BWAuths", ErrBadScheduleInput)
	}
	numSlots := p.SlotsPerPeriod()
	if numSlots <= 0 {
		return nil, fmt.Errorf("%w: period shorter than one slot", ErrBadScheduleInput)
	}

	sb.order.compute(relays, p)
	sb.prepare(relays, len(teamCapBps), numSlots)
	s := sb.sched

	var wg sync.WaitGroup
	for b := range teamCapBps {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			sb.buildOne(b, seed, relays, teamCapBps[b], numSlots)
		}(b)
	}
	wg.Wait()

	// Merge the per-BWAuth placement failures into one deterministic
	// list: a relay is unscheduled if any BWAuth could not place it,
	// reported in input order.
	for _, failed := range sb.failedB {
		for _, ri := range failed {
			sb.unsched[ri] = true
		}
	}
	total := 0
	for i, r := range relays {
		if sb.unsched[i] {
			s.Unscheduled = append(s.Unscheduled, r.Name)
		}
	}
	for b := range s.slotBy {
		for _, slot := range s.slotBy[b] {
			if slot >= 0 {
				total++
			}
		}
	}
	s.assignments = total
	return s, nil
}

// Listed reports whether relayName was in the input of the last Build.
// It answers from the relay index the builder keeps across builds, so a
// caller can test population membership without a set of its own.
func (sb *ScheduleBuilder) Listed(relayName string) bool {
	_, ok := sb.ord[relayName]
	return ok
}

// prepare sizes (or recycles) the output Schedule, the relay→ordinal
// map, and the per-BWAuth scratch for this build.
func (sb *ScheduleBuilder) prepare(relays []RelayEstimate, numBWAuths, numSlots int) {
	s := sb.sched
	if s == nil || s.NumSlots != numSlots || len(s.PerBWAuth) != numBWAuths {
		s = &Schedule{NumSlots: numSlots, PerBWAuth: make([][][]Assignment, numBWAuths)}
		for b := range s.PerBWAuth {
			s.PerBWAuth[b] = make([][]Assignment, numSlots)
		}
		s.slotBy = make([][]int32, numBWAuths)
		sb.sched = s
	} else {
		for b := range s.PerBWAuth {
			for slot := range s.PerBWAuth[b] {
				s.PerBWAuth[b][slot] = s.PerBWAuth[b][slot][:0]
			}
		}
	}
	s.Unscheduled = s.Unscheduled[:0]

	// The name→ordinal map is the one per-build cost proportional to R
	// that cannot be updated incrementally, so it is rebuilt only when
	// the population actually changed. The equality check compares
	// string headers first, so a coordinator feeding the same backing
	// relay list each round pays O(R) pointer compares, not a rebuild.
	same := len(sb.ordNames) == len(relays)
	if same {
		for i := range relays {
			if relays[i].Name != sb.ordNames[i] {
				same = false
				break
			}
		}
	}
	if !same {
		sb.ord = make(map[string]int32, len(relays))
		if cap(sb.ordNames) < len(relays) {
			sb.ordNames = make([]string, 0, len(relays))
		} else {
			sb.ordNames = sb.ordNames[:0]
		}
		for i, r := range relays {
			sb.ord[r.Name] = int32(i)
			sb.ordNames = append(sb.ordNames, r.Name)
		}
	}
	s.relayOrd = sb.ord

	for b := range s.slotBy {
		if cap(s.slotBy[b]) < len(relays) {
			s.slotBy[b] = make([]int32, len(relays))
		}
		s.slotBy[b] = s.slotBy[b][:len(relays)]
		for i := range s.slotBy[b] {
			s.slotBy[b][i] = -1
		}
	}

	if cap(sb.unsched) < len(relays) {
		sb.unsched = make([]bool, len(relays))
	}
	sb.unsched = sb.unsched[:len(relays)]
	for i := range sb.unsched {
		sb.unsched[i] = false
	}

	for len(sb.perB) < numBWAuths {
		sb.perB = append(sb.perB, &slotIndex{})
	}
	for len(sb.failedB) < numBWAuths {
		sb.failedB = append(sb.failedB, nil)
	}
	for b := 0; b < numBWAuths; b++ {
		sb.failedB[b] = sb.failedB[b][:0]
	}
}

// buildOne places every relay for one BWAuth: old relays by uniform
// random draw among feasible slots, new relays FCFS into the earliest
// feasible slot. It runs concurrently with its siblings; all state it
// touches (slot index, slot arrays, slotBy column, failure list) is
// per-BWAuth.
func (sb *ScheduleBuilder) buildOne(b int, seed []byte, relays []RelayEstimate, capBps float64, numSlots int) {
	rng := scheduleRNG(seed, b)
	x := sb.perB[b]
	x.reset(numSlots, capBps)
	slots := sb.sched.PerBWAuth[b]
	slotOf := sb.sched.slotBy[b]
	failed := sb.failedB[b]

	for _, pr := range sb.order.pairs {
		ri, need := pr.idx, pr.need
		x.lowerThreshold(need)
		if x.feasCount == 0 {
			failed = append(failed, ri)
			continue
		}
		slot := x.kth(rng.Intn(x.feasCount))
		x.place(slot, need)
		slots[slot] = append(slots[slot], Assignment{Relay: relays[ri].Name, NeedBps: need, Index: int(ri)})
		slotOf[ri] = int32(slot)
	}

	// FCFS phase: the feasible-set machinery is no longer consulted, so
	// drop the threshold to -Inf and let place skip its bookkeeping.
	x.threshold = math.Inf(-1)
	for _, ri := range sb.order.freshIdx {
		need := sb.order.needs[ri]
		slot := x.earliest(need)
		if slot < 0 {
			failed = append(failed, ri)
			continue
		}
		x.place(slot, need)
		slots[slot] = append(slots[slot], Assignment{Relay: relays[ri].Name, NeedBps: need, Index: int(ri)})
		slotOf[ri] = int32(slot)
	}
	sb.failedB[b] = failed
}

// GreedyResult summarizes a fastest-possible network measurement estimate
// (§7 "Network Measurement Efficiency").
type GreedyResult struct {
	// SlotsUsed is the number of slots needed to measure every relay.
	SlotsUsed int
	// RelaysMeasured and TotalCapacityBps summarize the input.
	RelaysMeasured   int
	TotalCapacityBps float64
	// Unmeasurable lists relays whose single-measurement need exceeds the
	// team capacity.
	Unmeasurable []string
}

// HoursUsed converts SlotsUsed to hours given the slot length.
func (g GreedyResult) HoursUsed(p Params) float64 {
	return float64(g.SlotsUsed) * float64(p.SlotSeconds) / 3600
}

// GreedyFastestSchedule computes how quickly a single team can measure the
// whole network: slots are filled first-fit-decreasing, each time taking
// the largest remaining relay that fits the slot's residual capacity
// (§7's greedy scheduler). excessFactor lets callers reproduce the §7
// number with f = 2.84 as well as the §4.2 formula value.
//
// The seed implementation re-swept the item array for every slot
// (O(slots·R) worst case). This version keeps the items need-descending
// and finds "largest unplaced relay with need ≤ residual" by binary
// search plus a union-find next-unplaced pointer with path compression —
// O(R·log R) total, producing the identical packing (each slot's take
// sequence is exactly the seed scan's: a skipped larger item can never
// fit later in the same slot because the residual only shrinks).
func GreedyFastestSchedule(relays []RelayEstimate, teamCapBps float64, excessFactor float64, p Params) GreedyResult {
	type item struct {
		name string
		need float64
	}
	items := make([]item, 0, len(relays))
	res := GreedyResult{}
	for _, r := range relays {
		need := excessFactor * r.EstimateBps
		res.TotalCapacityBps += r.EstimateBps
		if need > teamCapBps {
			res.Unmeasurable = append(res.Unmeasurable, r.Name)
			continue
		}
		items = append(items, item{name: r.Name, need: need})
	}
	slices.SortFunc(items, func(a, b item) int {
		if a.need != b.need {
			if a.need > b.need {
				return -1
			}
			return 1
		}
		return strings.Compare(a.name, b.name)
	})
	res.RelaysMeasured = len(items)
	n := len(items)
	if n == 0 {
		return res
	}

	needs := make([]float64, n)
	for i, it := range items {
		needs[i] = it.need
	}
	// next[i] is the first unplaced index ≥ i (n is the end sentinel).
	next := make([]int32, n+1)
	for i := range next {
		next[i] = int32(i)
	}
	find := func(i int) int {
		for int(next[i]) != i {
			next[i] = next[next[i]]
			i = int(next[i])
		}
		return i
	}

	placed := 0
	slots := 0
	for placed < n {
		slots++
		residual := teamCapBps
		for {
			// First (= largest-need) index that fits the residual; the
			// union-find hop then skips already-placed items.
			lo := sort.Search(n, func(i int) bool { return needs[i] <= residual })
			if lo >= n {
				break
			}
			j := find(lo)
			if j >= n {
				break
			}
			next[j] = int32(j + 1)
			residual -= needs[j]
			placed++
			if residual <= 0 {
				break
			}
		}
	}
	res.SlotsUsed = slots
	return res
}

// NewRelaySlots estimates how long new relays arriving in a consensus wait
// before measurement: with the steady-state schedule occupying
// busySlotFraction of each slot's capacity, a batch of n new relays with
// prior z0 is measured in ceil(n·f·z0 / (teamCap·(1−busyFraction))) slots
// (at least one when n > 0).
func NewRelaySlots(n int, z0Bps, teamCapBps, busyFraction float64, p Params) int {
	if n <= 0 {
		return 0
	}
	free := teamCapBps * (1 - busyFraction)
	if free <= 0 {
		return -1
	}
	need := float64(n) * RequiredBps(z0Bps, p)
	return int(math.Ceil(need / free))
}
