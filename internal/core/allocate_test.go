package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func team3x1G() []*Measurer {
	return []*Measurer{
		{Name: "m1", CapacityBps: 1e9, Cores: 4},
		{Name: "m2", CapacityBps: 1e9, Cores: 4},
		{Name: "m3", CapacityBps: 1e9, Cores: 4},
	}
}

func TestAllocateGreedySingleMeasurerSuffices(t *testing.T) {
	team := team3x1G()
	p := DefaultParams()
	alloc, err := AllocateGreedy(team, 500e6, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alloc.TotalBps-500e6) > 1 {
		t.Fatalf("total: got %v want 500e6", alloc.TotalBps)
	}
	// Greedy assigns the measurer with the most capacity all that is
	// needed — exactly one participant here.
	participants := 0
	for _, a := range alloc.PerMeasurerBps {
		if a > 0 {
			participants++
		}
	}
	if participants != 1 {
		t.Fatalf("participants: got %d want 1", participants)
	}
}

func TestAllocateGreedySpillsOver(t *testing.T) {
	team := team3x1G()
	p := DefaultParams()
	alloc, err := AllocateGreedy(team, 2.5e9, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alloc.TotalBps-2.5e9) > 1 {
		t.Fatalf("total: got %v", alloc.TotalBps)
	}
	// First two take 1 Gbit each, third takes 0.5.
	got := append([]float64(nil), alloc.PerMeasurerBps...)
	want := []float64{1e9, 1e9, 0.5e9}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1 {
			t.Fatalf("per-measurer: got %v want %v", got, want)
		}
	}
}

func TestAllocateGreedyRespectsCommitted(t *testing.T) {
	team := team3x1G()
	team[0].CommittedBps = 0.9e9
	p := DefaultParams()
	alloc, err := AllocateGreedy(team, 1.5e9, p)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.PerMeasurerBps[0] > 0.1e9+1 {
		t.Fatalf("measurer 0 over-allocated: %v", alloc.PerMeasurerBps[0])
	}
}

// TestAllocateGreedyKeepsPreferredMeasurerUnderCommit pins a relay to its
// preferred measurer while a concurrent slot holds part of that
// measurer's capacity. The measurer still covers the need, so it keeps
// the relay — and the relay keeps its pooled connection to it. Ranking by
// residual capacity would move the relay to the idle member instead.
func TestAllocateGreedyKeepsPreferredMeasurerUnderCommit(t *testing.T) {
	team := []*Measurer{
		{Name: "m0", CapacityBps: 1e9, Cores: 1},
		{Name: "m1", CapacityBps: 1e9, Cores: 1, CommittedBps: 0.3e9},
	}
	alloc, err := AllocateGreedyFrom(team, 0.5e9, 1, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if alloc.PerMeasurerBps[0] != 0 || alloc.PerMeasurerBps[1] != 0.5e9 {
		t.Fatalf("per-measurer %v, want [0 5e8]: the preferred, partly committed measurer must keep the relay", alloc.PerMeasurerBps)
	}
}

func TestAllocateGreedyInsufficient(t *testing.T) {
	team := team3x1G()
	p := DefaultParams()
	if _, err := AllocateGreedy(team, 4e9, p); !errors.Is(err, ErrInsufficientCapacity) {
		t.Fatalf("want ErrInsufficientCapacity, got %v", err)
	}
}

func TestAllocateGreedyNonpositive(t *testing.T) {
	if _, err := AllocateGreedy(team3x1G(), 0, DefaultParams()); err == nil {
		t.Fatal("zero request should error")
	}
}

func TestSocketSplitEvenShare(t *testing.T) {
	team := team3x1G()
	p := DefaultParams()
	alloc, err := AllocateGreedy(team, 2.5e9, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range alloc.PerMeasurerBps {
		if a > 0 {
			// s=160 across 3 participants → 53 each.
			if alloc.SocketsPer[i] != 160/3 {
				t.Fatalf("sockets for %d: got %d want %d", i, alloc.SocketsPer[i], 160/3)
			}
			if alloc.Processes[i] != 4 {
				t.Fatalf("processes for %d: got %d want cores=4", i, alloc.Processes[i])
			}
		} else if alloc.SocketsPer[i] != 0 {
			t.Fatalf("non-participant got sockets: %d", alloc.SocketsPer[i])
		}
	}
}

func TestCommitRelease(t *testing.T) {
	team := team3x1G()
	p := DefaultParams()
	alloc, err := AllocateGreedy(team, 1.2e9, p)
	if err != nil {
		t.Fatal(err)
	}
	Commit(team, alloc)
	var committed float64
	for _, m := range team {
		committed += m.CommittedBps
	}
	if math.Abs(committed-1.2e9) > 1 {
		t.Fatalf("committed: got %v", committed)
	}
	Release(team, alloc)
	for _, m := range team {
		if m.CommittedBps != 0 {
			t.Fatalf("release left %v committed on %s", m.CommittedBps, m.Name)
		}
	}
}

func TestRequiredBps(t *testing.T) {
	p := DefaultParams()
	want := 100e6 * p.ExcessFactor()
	if got := RequiredBps(100e6, p); math.Abs(got-want) > 1e-6 {
		t.Fatalf("required: got %v want %v", got, want)
	}
}

func TestTeamCapacity(t *testing.T) {
	if got := TeamCapacityBps(team3x1G()); got != 3e9 {
		t.Fatalf("team capacity: %v", got)
	}
}

// Property: a feasible allocation satisfies Σ a_i = need, 0 ≤ a_i ≤
// residual_i, and uses the minimal number of measurers for the greedy
// order (each non-last participant is fully used).
func TestAllocateGreedyInvariantsQuick(t *testing.T) {
	p := DefaultParams()
	f := func(caps [4]uint16, needScale uint8) bool {
		team := make([]*Measurer, 4)
		var total float64
		for i, c := range caps {
			capBps := float64(c%2000+1) * 1e6
			team[i] = &Measurer{Name: "m", CapacityBps: capBps, Cores: 2}
			total += capBps
		}
		need := total * float64(needScale%100+1) / 100
		alloc, err := AllocateGreedy(team, need, p)
		if err != nil {
			return false
		}
		var sum float64
		participants := 0
		fullyUsed := 0
		for i, a := range alloc.PerMeasurerBps {
			if a < 0 || a > team[i].ResidualBps()+1e-6 {
				return false
			}
			sum += a
			if a > 0 {
				participants++
				if math.Abs(a-team[i].ResidualBps()) < 1e-6 {
					fullyUsed++
				}
			}
		}
		if math.Abs(sum-need) > 1e-3 {
			return false
		}
		// Greedy shape: at most one participant is partially used.
		return participants-fullyUsed <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
