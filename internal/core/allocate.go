package core

import (
	"errors"
	"fmt"
)

// Measurer describes one measurement host in a team: its name, its
// measured network capacity c_i (from the iPerf self-measurement, §4.2),
// and how much of that capacity is currently committed to concurrent
// measurements.
type Measurer struct {
	Name        string
	CapacityBps float64
	// CommittedBps is capacity reserved by in-flight measurements; the
	// scheduler keeps it ≤ CapacityBps.
	CommittedBps float64
	// Cores bounds the number of measuring Tor processes k_i that can be
	// started (§4.1: one per CPU core, always at least one).
	Cores int
}

// ResidualBps returns the measurer's uncommitted capacity.
func (m *Measurer) ResidualBps() float64 {
	r := m.CapacityBps - m.CommittedBps
	if r < 0 {
		return 0
	}
	return r
}

// Allocation is the per-measurer capacity assignment a_1…a_m for one
// measurement, with the process and socket split of §4.1.
type Allocation struct {
	// PerMeasurerBps[i] is a_i (0 means measurer i does not participate).
	PerMeasurerBps []float64
	// Processes[i] is k_i, the number of measuring Tor processes at
	// measurer i; each is rate-limited to a_i/k_i.
	Processes []int
	// SocketsPer[i] is the socket count measurer i uses (an even share
	// s/m' of the total across the m' participating measurers).
	SocketsPer []int
	// TotalBps is Σ a_i.
	TotalBps float64
}

// ErrInsufficientCapacity is returned when the team cannot supply the
// required capacity.
var ErrInsufficientCapacity = errors.New("core: insufficient team capacity")

// AllocateGreedy implements §4.2's greedy allocation: to supply needBps of
// measurement capacity, repeatedly assign the measurer with the most
// capacity either all of its residual (uncommitted) capacity or as much as
// is needed to reach the target. It returns the allocation without
// mutating the measurers; callers commit it with Commit.
func AllocateGreedy(team []*Measurer, needBps float64, p Params) (Allocation, error) {
	return AllocateGreedyFrom(team, needBps, 0, p)
}

// AllocateGreedyFrom is AllocateGreedy with the equal-capacity tie-break
// rotated to start at the given index. Under concurrent measurements the
// plain index tie-break races — whichever slot allocates first grabs the
// first measurer, so a relay's measurer assignment flips from round to
// round. The continuous coordinator derives the rotation from the relay
// name (see MeasureRelayGuarded), pinning each relay to the same
// measurers across rounds so their pooled connections stay warm.
//
// Measurers are ranked by CapacityBps, not by residual capacity, for the
// same reason: a concurrent slot's Commit lowers a measurer's residual,
// and ranking by residual would let it outrank the relay's preferred
// rotation and move the relay to another measurer. A measurer still gives
// no more than its residual, so serial runs (residual = capacity) allocate
// exactly as a residual ranking would.
func AllocateGreedyFrom(team []*Measurer, needBps float64, prefer int, p Params) (Allocation, error) {
	if needBps <= 0 {
		return Allocation{}, fmt.Errorf("core: nonpositive capacity request %v", needBps)
	}
	// Per-measurer scratch lives on the stack for teams up to smallTeam,
	// keeping the per-attempt path allocation-free.
	var orderBuf [smallTeam]int
	var residualBuf [smallTeam]float64
	order, residual := orderBuf[:0], residualBuf[:0]
	if len(team) > smallTeam {
		order, residual = make([]int, 0, len(team)), make([]float64, 0, len(team))
	}
	var residualTotal float64
	for _, m := range team {
		r := m.ResidualBps()
		residual = append(residual, r)
		residualTotal += r
	}
	if residualTotal < needBps {
		return Allocation{}, fmt.Errorf("%w: need %.0f, have %.0f", ErrInsufficientCapacity, needBps, residualTotal)
	}

	alloc := newAllocation(len(team))
	prefer %= len(team)
	if prefer < 0 {
		prefer += len(team)
	}
	// Order of consideration: most capacity first; ties broken by index
	// rotated to the preferred start, for determinism. The stable
	// insertion sort is sort.SliceStable's own algorithm at team sizes.
	for i := range team {
		order = append(order, (prefer+i)%len(team))
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && team[order[j]].CapacityBps > team[order[j-1]].CapacityBps; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	remaining := needBps
	for _, idx := range order {
		if remaining <= 0 {
			break
		}
		take := residual[idx]
		if take > remaining {
			take = remaining
		}
		if take <= 0 {
			continue
		}
		alloc.PerMeasurerBps[idx] = take
		alloc.TotalBps += take
		remaining -= take
	}

	// Socket and process split across the participating measurers.
	participating := 0
	for _, a := range alloc.PerMeasurerBps {
		if a > 0 {
			participating++
		}
	}
	for i, a := range alloc.PerMeasurerBps {
		if a <= 0 {
			continue
		}
		cores := team[i].Cores
		if cores < 1 {
			cores = 1
		}
		alloc.Processes[i] = cores
		alloc.SocketsPer[i] = p.Sockets / participating
		if alloc.SocketsPer[i] < 1 {
			alloc.SocketsPer[i] = 1
		}
	}
	return alloc, nil
}

// smallTeam is the largest team whose per-measurer scratch
// AllocateGreedyFrom and CrossCheck keep on the stack.
const smallTeam = 16

// newAllocation returns a zero allocation over n measurers, with the
// process and socket splits carved from one backing array.
func newAllocation(n int) Allocation {
	ints := make([]int, 2*n)
	return Allocation{
		PerMeasurerBps: make([]float64, n),
		Processes:      ints[:n:n],
		SocketsPer:     ints[n:],
	}
}

// AllocateEven divides needBps evenly across all team members, as the
// paper's accuracy experiments do ("we divide that capacity assignment
// evenly across the measurers in the subset", Appendix E.2). Members whose
// residual capacity is below the even share contribute what they can; the
// shortfall is redistributed greedily.
func AllocateEven(team []*Measurer, needBps float64, p Params) (Allocation, error) {
	if needBps <= 0 {
		return Allocation{}, fmt.Errorf("core: nonpositive capacity request %v", needBps)
	}
	if len(team) == 0 {
		return Allocation{}, ErrInsufficientCapacity
	}
	var residualTotal float64
	for _, m := range team {
		residualTotal += m.ResidualBps()
	}
	if residualTotal < needBps {
		return Allocation{}, fmt.Errorf("%w: need %.0f, have %.0f", ErrInsufficientCapacity, needBps, residualTotal)
	}
	alloc := newAllocation(len(team))
	share := needBps / float64(len(team))
	var assigned float64
	for i, m := range team {
		a := share
		if r := m.ResidualBps(); a > r {
			a = r
		}
		alloc.PerMeasurerBps[i] = a
		assigned += a
	}
	// Redistribute any shortfall to members with headroom.
	for pass := 0; pass < len(team) && needBps-assigned > 1e-6; pass++ {
		for i, m := range team {
			headroom := m.ResidualBps() - alloc.PerMeasurerBps[i]
			if headroom <= 0 {
				continue
			}
			extra := needBps - assigned
			if extra > headroom {
				extra = headroom
			}
			alloc.PerMeasurerBps[i] += extra
			assigned += extra
			if needBps-assigned <= 1e-6 {
				break
			}
		}
	}
	alloc.TotalBps = assigned
	for i, a := range alloc.PerMeasurerBps {
		if a <= 0 {
			continue
		}
		cores := team[i].Cores
		if cores < 1 {
			cores = 1
		}
		alloc.Processes[i] = cores
		alloc.SocketsPer[i] = p.Sockets / len(team)
		if alloc.SocketsPer[i] < 1 {
			alloc.SocketsPer[i] = 1
		}
	}
	return alloc, nil
}

// Commit reserves the allocation's capacity on the team.
func Commit(team []*Measurer, a Allocation) {
	for i, amt := range a.PerMeasurerBps {
		if i < len(team) {
			team[i].CommittedBps += amt
		}
	}
}

// Release returns the allocation's capacity to the team.
func Release(team []*Measurer, a Allocation) {
	for i, amt := range a.PerMeasurerBps {
		if i < len(team) {
			team[i].CommittedBps -= amt
			// Snap sub-bit residue to zero: interleaved Commit/Release
			// pairs leave float dust ((a+b)−a−b ≠ 0) that would otherwise
			// silently reorder the greedy allocation's residual-capacity
			// tie-break between otherwise-idle measurers.
			if team[i].CommittedBps < 1 {
				team[i].CommittedBps = 0
			}
		}
	}
}

// TeamCapacityBps returns the team's total capacity Σ c_i.
func TeamCapacityBps(team []*Measurer) float64 {
	var t float64
	for _, m := range team {
		t += m.CapacityBps
	}
	return t
}

// RequiredBps returns the measurer capacity needed to measure a relay with
// estimate z0Bps: f·z0 (§4.2).
func RequiredBps(z0Bps float64, p Params) float64 {
	return p.ExcessFactor() * z0Bps
}
