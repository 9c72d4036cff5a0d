package dirauth

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func mkFile(name string, at time.Duration, weights map[string]float64) *BandwidthFile {
	var es []BandwidthEntry
	for n, w := range weights {
		es = append(es, BandwidthEntry{Name: n, WeightBps: w})
	}
	return NewBandwidthFile(name, at, es)
}

func TestConsensusLookupAndSorting(t *testing.T) {
	c := NewConsensus(0, []RelayEntry{
		{Name: "zeta", WeightBps: 1},
		{Name: "alpha", WeightBps: 2},
	})
	if c.Relays[0].Name != "alpha" {
		t.Fatalf("relays not sorted: %v", c.Relays[0].Name)
	}
	e, ok := c.Lookup("zeta")
	if !ok || e.WeightBps != 1 {
		t.Fatalf("lookup zeta: %v %v", e, ok)
	}
	if _, ok := c.Lookup("missing"); ok {
		t.Fatal("lookup of missing relay should fail")
	}
}

func TestTotals(t *testing.T) {
	c := NewConsensus(0, []RelayEntry{
		{Name: "a", WeightBps: 10, AdvertisedBps: 100},
		{Name: "b", WeightBps: 30, AdvertisedBps: 300},
	})
	if c.TotalWeight() != 40 {
		t.Fatalf("total weight: %v", c.TotalWeight())
	}
	if c.TotalAdvertised() != 400 {
		t.Fatalf("total advertised: %v", c.TotalAdvertised())
	}
	nw := c.NormalizedWeights()
	if math.Abs(nw[0]-0.25) > 1e-12 || math.Abs(nw[1]-0.75) > 1e-12 {
		t.Fatalf("normalized weights: %v", nw)
	}
}

func TestAggregateMedianBasic(t *testing.T) {
	files := []*BandwidthFile{
		mkFile("bw1", 0, map[string]float64{"a": 100, "b": 10}),
		mkFile("bw2", 0, map[string]float64{"a": 200, "b": 20}),
		mkFile("bw3", 0, map[string]float64{"a": 300, "b": 60}),
	}
	c, err := AggregateMedian(time.Hour, files, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Lookup("a")
	if a.WeightBps != 200 {
		t.Fatalf("median weight a: got %v want 200", a.WeightBps)
	}
	b, _ := c.Lookup("b")
	if b.WeightBps != 20 {
		t.Fatalf("median weight b: got %v want 20", b.WeightBps)
	}
	if c.At != time.Hour {
		t.Fatalf("consensus time: %v", c.At)
	}
}

func TestAggregateMedianRequiresMajority(t *testing.T) {
	// Relay "c" measured by only 1 of 3 BWAuths must not enter the
	// consensus (§2: relays are unused until measured by a majority).
	files := []*BandwidthFile{
		mkFile("bw1", 0, map[string]float64{"a": 100, "c": 5}),
		mkFile("bw2", 0, map[string]float64{"a": 200}),
		mkFile("bw3", 0, map[string]float64{"a": 300}),
	}
	c, err := AggregateMedian(0, files, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup("c"); ok {
		t.Fatal("minority-measured relay should be excluded")
	}
	if _, ok := c.Lookup("a"); !ok {
		t.Fatal("majority-measured relay should be included")
	}
}

func TestAggregateMedianResistsOneLiar(t *testing.T) {
	// A single malicious BWAuth reporting a huge weight cannot move the
	// median with 3 honest-majority files.
	files := []*BandwidthFile{
		mkFile("honest1", 0, map[string]float64{"a": 100}),
		mkFile("honest2", 0, map[string]float64{"a": 110}),
		mkFile("evil", 0, map[string]float64{"a": 1e12}),
	}
	c, err := AggregateMedian(0, files, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Lookup("a")
	if a.WeightBps != 110 {
		t.Fatalf("median with liar: got %v want 110", a.WeightBps)
	}
}

func TestAggregateMedianEmpty(t *testing.T) {
	if _, err := AggregateMedian(0, nil, nil, nil); err == nil {
		t.Fatal("empty aggregation should error")
	}
}

func TestAggregateCarriesMetadata(t *testing.T) {
	files := []*BandwidthFile{
		mkFile("bw1", 0, map[string]float64{"a": 100}),
	}
	firstSeen := map[string]time.Duration{"a": 42 * time.Hour}
	adv := map[string]float64{"a": 777}
	c, err := AggregateMedian(0, files, firstSeen, adv)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Lookup("a")
	if a.FirstSeen != 42*time.Hour || a.AdvertisedBps != 777 {
		t.Fatalf("metadata not carried: %+v", a)
	}
}

func TestMedianCapacities(t *testing.T) {
	f1 := NewBandwidthFile("bw1", 0, []BandwidthEntry{{Name: "a", WeightBps: 10, CapacityBps: 100}})
	f2 := NewBandwidthFile("bw2", 0, []BandwidthEntry{{Name: "a", WeightBps: 12, CapacityBps: 120}})
	f3 := NewBandwidthFile("bw3", 0, []BandwidthEntry{
		{Name: "weightsOnly", WeightBps: 9},
		{Name: "a", WeightBps: 11, CapacityBps: 110},
	})
	caps := MedianCapacities([]*BandwidthFile{f1, f2, f3})
	if caps["a"] != 110 {
		t.Fatalf("median capacity: got %v want 110", caps["a"])
	}
	if _, ok := caps["weightsOnly"]; ok {
		t.Fatal("zero-capacity entries must be skipped")
	}
}

// Property: the aggregated weight for a relay is bounded by the min and max
// of the honest file weights whenever the honest files form a majority.
func TestMedianBoundedByHonestQuick(t *testing.T) {
	f := func(honest [3]uint32, evil uint32) bool {
		files := []*BandwidthFile{
			mkFile("h1", 0, map[string]float64{"a": float64(honest[0])}),
			mkFile("h2", 0, map[string]float64{"a": float64(honest[1])}),
			mkFile("h3", 0, map[string]float64{"a": float64(honest[2])}),
			mkFile("e1", 0, map[string]float64{"a": float64(evil) * 1e6}),
		}
		c, err := AggregateMedian(0, files, nil, nil)
		if err != nil {
			return false
		}
		a, ok := c.Lookup("a")
		if !ok {
			return false
		}
		lo := math.Min(float64(honest[0]), math.Min(float64(honest[1]), float64(honest[2])))
		hi := math.Max(float64(honest[0]), math.Max(float64(honest[1]), float64(honest[2])))
		// With 3 honest files of 4 total, the median averages the 2nd and
		// 3rd order statistics, both of which lie within the honest range
		// regardless of the evil value. So the median is in [lo, hi].
		return a.WeightBps >= lo-1e-9 && a.WeightBps <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
