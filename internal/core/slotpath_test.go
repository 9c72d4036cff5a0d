package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"flashflow/internal/dirauth"
)

// fixedBackend completes every slot at once with the same preallocated
// data, streaming its seconds to the sink first, so a test can count
// what the measurement path itself allocates.
type fixedBackend struct {
	data MeasurementData
	row  []float64
}

func newFixedBackend(members, seconds int, perSecondBytes float64) *fixedBackend {
	b := &fixedBackend{
		data: MeasurementData{MeasBytes: make([][]float64, members)},
		row:  make([]float64, members),
	}
	for i := range b.data.MeasBytes {
		b.data.MeasBytes[i] = make([]float64, seconds)
		for j := range b.data.MeasBytes[i] {
			b.data.MeasBytes[i][j] = perSecondBytes / float64(members) * (1 - 0.001*float64(j%7))
		}
	}
	return b
}

func (b *fixedBackend) RunMeasurement(_ context.Context, _ string, _ Allocation, seconds int, sink SampleSink) (MeasurementData, error) {
	if sink != nil {
		for j := 0; j < seconds; j++ {
			for i := range b.row {
				b.row[i] = b.data.MeasBytes[i][j]
			}
			sink(Sample{Second: j, MeasBytes: b.row})
		}
	}
	return b.data, nil
}

// slotPathAllocs is the allocation budget of one conclusive
// BWAuth.MeasureTarget attempt: the attempt's cancel context (2), the
// early-abort watcher and its sink (2), the Allocation's two backing
// arrays (2) and the outcome's attempt record (1). The aggregation, the
// medians, the measurer ordering and the cross-check allocate nothing.
const slotPathAllocs = 7

func TestMeasureTargetAllocationBudget(t *testing.T) {
	p := DefaultParams()
	team := []*Measurer{
		{Name: "m0", CapacityBps: 10e9, Cores: 4},
		{Name: "m1", CapacityBps: 10e9, Cores: 4},
		{Name: "m2", CapacityBps: 10e9, Cores: 4},
	}
	// 100 Mbit/s demonstrated against a 100 Mbit/s prior: the first
	// attempt is accepted.
	backend := newFixedBackend(len(team), p.SlotSeconds, 100e6/8)
	a := NewBWAuth("bw0", team, backend, p)
	a.SetEstimate("relay", 100e6)
	// Room for every run's history append, so only the slot path counts.
	a.history = make([]float64, 0, 1024)
	var out MeasureOutcome
	var err error
	allocs := testing.AllocsPerRun(200, func() {
		out, err = a.MeasureTarget(context.Background(), "relay")
	})
	if err != nil || !out.Conclusive || len(out.Attempts) != 1 {
		t.Fatalf("want one conclusive attempt, got %+v, %v", out, err)
	}
	if allocs != slotPathAllocs {
		t.Fatalf("MeasureTarget: %v allocs per conclusive attempt, want %d", allocs, slotPathAllocs)
	}
}

// TestRelayPreferredMeasurerIsFNV1a pins the inline hash to hash/fnv, so
// relays keep their measurers (and pooled connections) across versions.
func TestRelayPreferredMeasurerIsFNV1a(t *testing.T) {
	for _, name := range []string{"", "a", "relay-0000042-00beef", "ünïcode", "bw0/relay"} {
		h := fnv.New32a()
		h.Write([]byte(name))
		for _, n := range []int{1, 2, 3, 7} {
			if got, want := relayPreferredMeasurer(name, n), int(h.Sum32()%uint32(n)); got != want {
				t.Fatalf("relayPreferredMeasurer(%q, %d) = %d, want %d", name, n, got, want)
			}
		}
	}
}

// TestAggregateEstimateMatchesAggregate checks that the series-free
// aggregation the measurement loop uses returns Aggregate's result field
// for field, below and above the stack-scratch bound, with and without
// normal-traffic reports.
func TestAggregateEstimateMatchesAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, seconds := range []int{1, 2, 30, maxStackSeconds, maxStackSeconds + 1, 200} {
		for trial := 0; trial < 20; trial++ {
			members := 1 + rng.Intn(4)
			data := MeasurementData{MeasBytes: make([][]float64, members)}
			for i := range data.MeasBytes {
				data.MeasBytes[i] = make([]float64, seconds)
				for j := range data.MeasBytes[i] {
					data.MeasBytes[i][j] = rng.Float64() * 1e7
				}
			}
			switch trial % 3 {
			case 1: // honest reports
				data.NormBytes = make([]float64, seconds)
				for j := range data.NormBytes {
					data.NormBytes[j] = rng.Float64() * 1e6
				}
			case 2: // reports that hit the clamp
				data.NormBytes = make([]float64, seconds)
				for j := range data.NormBytes {
					data.NormBytes[j] = rng.Float64() * 1e8
				}
			}
			full, err := Aggregate(data, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			est, err := aggregateEstimate(data, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			if est.EstimateBytesPerSec != full.EstimateBytesPerSec || est.MeasOnlyMedian != full.MeasOnlyMedian ||
				est.ClampedSeconds != full.ClampedSeconds || est.RatioClamped != full.RatioClamped || est.PerSecondTotals != nil {
				t.Fatalf("seconds=%d trial=%d: aggregateEstimate %+v, Aggregate %+v", seconds, trial, est, full)
			}
			if trial%3 == 0 && full.MeasOnlyMedian != full.EstimateBytesPerSec {
				t.Fatalf("no normal traffic, yet MeasOnlyMedian %v != estimate %v", full.MeasOnlyMedian, full.EstimateBytesPerSec)
			}
		}
	}
}

// bandwidthFileBySort is the map-then-sort view build that the sorted
// name order replaced, kept as the oracle for BandwidthFile.
func bandwidthFileBySort(b *BWAuth, at time.Duration) *dirauth.BandwidthFile {
	b.mu.Lock()
	names := make([]string, 0, len(b.estimates))
	for name := range b.estimates {
		names = append(names, name)
	}
	sort.Strings(names)
	entries := make([]dirauth.BandwidthEntry, len(names))
	for i, name := range names {
		est := b.estimates[name]
		entries[i] = dirauth.BandwidthEntry{Name: name, WeightBps: est, CapacityBps: est}
	}
	b.mu.Unlock()
	return &dirauth.BandwidthFile{Producer: b.Name, At: at, Entries: entries}
}

// TestBandwidthFileViewOrder runs random sequences of estimate updates,
// new names, measurements and Retain calls that delete and re-add
// names, and checks every view against the map-then-sort oracle.
func TestBandwidthFileViewOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	p := DefaultParams()
	team := []*Measurer{{Name: "m0", CapacityBps: 10e9, Cores: 4}, {Name: "m1", CapacityBps: 10e9, Cores: 4}}
	a := NewBWAuth("bw0", team, newFixedBackend(len(team), p.SlotSeconds, 50e6/8), p)
	name := func() string { return fmt.Sprintf("relay-%03d", rng.Intn(120)) }
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			a.SetEstimate(name(), float64(1+rng.Intn(1000))*1e6)
		case op < 7:
			if _, err := a.MeasureTarget(context.Background(), name()); err != nil {
				t.Fatal(err)
			}
		case op < 9:
			keep := make(map[string]bool)
			for i := 0; i < 120; i++ {
				if rng.Intn(4) != 0 {
					keep[fmt.Sprintf("relay-%03d", i)] = true
				}
			}
			a.Retain(func(name string) bool { return keep[name] })
		default:
			a.Retain(func(string) bool { return false })
		}
		if rng.Intn(3) == 0 {
			continue // let several changes pile up between views
		}
		at := time.Duration(step) * time.Second
		got, want := a.BandwidthFile(at), bandwidthFileBySort(a, at)
		if got.Producer != want.Producer || got.At != want.At || !slices.Equal(got.Entries, want.Entries) {
			t.Fatalf("step %d: view %v, oracle %v", step, got.Entries, want.Entries)
		}
	}
}

// TestAllocateGreedyOrderMatchesStableSort checks the in-place ordering
// against sort.SliceStable on teams with tied and distinct capacities and
// partly or fully committed residuals, for every preferred start.
func TestAllocateGreedyOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := DefaultParams()
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(smallTeam+6)
		team := make([]*Measurer, n)
		for i := range team {
			capBps := float64(1+rng.Intn(3)) * 1e9
			team[i] = &Measurer{Name: fmt.Sprint(i), CapacityBps: capBps, CommittedBps: float64(rng.Intn(3)) * 0.5e9, Cores: 1 + rng.Intn(4)}
		}
		need := 0.1e9 * float64(1+rng.Intn(20))
		for prefer := 0; prefer < n; prefer++ {
			got, gotErr := AllocateGreedyFrom(team, need, prefer, p)
			want, wantErr := allocateGreedyBySort(team, need, prefer, p)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("trial %d: errors differ: %v vs %v", trial, gotErr, wantErr)
			}
			if gotErr == nil && (got.TotalBps != want.TotalBps || !slices.Equal(got.PerMeasurerBps, want.PerMeasurerBps) ||
				!slices.Equal(got.Processes, want.Processes) || !slices.Equal(got.SocketsPer, want.SocketsPer)) {
				t.Fatalf("trial %d prefer %d: %+v, want %+v", trial, prefer, got, want)
			}
		}
	}
}

// allocateGreedyBySort is AllocateGreedyFrom's greedy fill ordered by
// capacity with sort.SliceStable, as it was before the in-place insertion
// sort.
func allocateGreedyBySort(team []*Measurer, needBps float64, prefer int, p Params) (Allocation, error) {
	var residualTotal float64
	for _, m := range team {
		residualTotal += m.ResidualBps()
	}
	if residualTotal < needBps {
		return Allocation{}, ErrInsufficientCapacity
	}
	alloc := Allocation{
		PerMeasurerBps: make([]float64, len(team)),
		Processes:      make([]int, len(team)),
		SocketsPer:     make([]int, len(team)),
	}
	order := make([]int, len(team))
	for i := range order {
		order[i] = (prefer + i) % len(team)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return team[order[a]].CapacityBps > team[order[b]].CapacityBps
	})
	remaining := needBps
	for _, idx := range order {
		if remaining <= 0 {
			break
		}
		take := math.Min(team[idx].ResidualBps(), remaining)
		if take <= 0 {
			continue
		}
		alloc.PerMeasurerBps[idx] = take
		alloc.TotalBps += take
		remaining -= take
	}
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
		alloc.Processes[i] = max(team[i].Cores, 1)
		alloc.SocketsPer[i] = max(p.Sockets/participating, 1)
	}
	return alloc, nil
}
