package torflow

import (
	"fmt"
	"math"
	"testing"
	"time"

	"flashflow/internal/stats"
)

func honestNetwork(n int, seedCap float64) []RelayState {
	relays := make([]RelayState, n)
	for i := range relays {
		capBps := seedCap * (1 + float64(i%17))
		relays[i] = RelayState{
			Name:            fmt.Sprintf("r%03d", i),
			CapacityBps:     capBps,
			AdvertisedBps:   capBps * 0.6, // chronic under-estimation (§3)
			UtilizationFrac: 0.5,
		}
	}
	return relays
}

func TestScanProducesWeights(t *testing.T) {
	s := NewScanner(DefaultScannerConfig(1))
	relays := honestNetwork(50, 10e6)
	res, err := s.Scan(relays)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WeightBps) != 50 || len(res.SpeedBps) != 50 {
		t.Fatalf("result sizes: %d %d", len(res.WeightBps), len(res.SpeedBps))
	}
	for i, w := range res.WeightBps {
		if w <= 0 {
			t.Fatalf("relay %d weight nonpositive: %v", i, w)
		}
	}
}

func TestScanEmpty(t *testing.T) {
	s := NewScanner(DefaultScannerConfig(1))
	if _, err := s.Scan(nil); err == nil {
		t.Fatal("empty scan should error")
	}
}

func TestScanDeterministicPerSeed(t *testing.T) {
	relays := honestNetwork(20, 10e6)
	r1, err := NewScanner(DefaultScannerConfig(7)).Scan(relays)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewScanner(DefaultScannerConfig(7)).Scan(relays)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.WeightBps {
		if r1.WeightBps[i] != r2.WeightBps[i] {
			t.Fatal("scan not deterministic")
		}
	}
}

func TestWeightsTrackCapacityOnAverage(t *testing.T) {
	// Honest network with uniform utilization: faster relays should get
	// larger weights (rank correlation, not exact proportionality).
	s := NewScanner(DefaultScannerConfig(3))
	relays := honestNetwork(100, 5e6)
	res, err := s.Scan(relays)
	if err != nil {
		t.Fatal(err)
	}
	// Compare mean weight of the top capacity quartile vs bottom.
	type pair struct{ capBps, w float64 }
	ps := make([]pair, len(relays))
	for i := range relays {
		ps[i] = pair{relays[i].CapacityBps, res.WeightBps[i]}
	}
	var topW, botW []float64
	for _, p := range ps {
		if p.capBps >= 14*5e6 {
			topW = append(topW, p.w)
		} else if p.capBps <= 4*5e6 {
			botW = append(botW, p.w)
		}
	}
	if stats.Mean(topW) <= stats.Mean(botW) {
		t.Fatal("fast relays should out-weigh slow relays on average")
	}
}

func TestUtilizationDepressesMeasuredSpeed(t *testing.T) {
	s := NewScanner(ScannerConfig{Probes: 50, NoiseSigma: 0, Seed: 1})
	idle := RelayState{Name: "idle", CapacityBps: 100e6, UtilizationFrac: 0}
	busy := RelayState{Name: "busy", CapacityBps: 100e6, UtilizationFrac: 0.9}
	partner := RelayState{Name: "p", CapacityBps: 1e9, UtilizationFrac: 0}
	if s.MeasuredSpeed(idle, partner) <= s.MeasuredSpeed(busy, partner) {
		t.Fatal("busy relay should measure slower")
	}
}

func TestPartnerBottleneck(t *testing.T) {
	s := NewScanner(ScannerConfig{Probes: 1, NoiseSigma: 0, Seed: 1})
	r := RelayState{Name: "r", CapacityBps: 1e9, UtilizationFrac: 0}
	slowPartner := RelayState{Name: "q", CapacityBps: 10e6, UtilizationFrac: 0}
	if got := s.MeasuredSpeed(r, slowPartner); got > 10e6 {
		t.Fatalf("partner should bottleneck the probe: %v", got)
	}
}

func TestAttackAdvantageLargeInflation(t *testing.T) {
	// Table 2: TorFlow's demonstrated attack advantage is ~177×. Our
	// model should show the same order of magnitude for a large lie.
	s := NewScanner(DefaultScannerConfig(5))
	honest := honestNetwork(200, 10e6)
	attacker := RelayState{Name: "evil", CapacityBps: 10e6, UtilizationFrac: 0.5}
	adv, err := s.AttackAdvantage(honest, attacker, 500)
	if err != nil {
		t.Fatal(err)
	}
	if adv < 50 {
		t.Fatalf("attack advantage too small: %v (TorFlow is badly inflatable)", adv)
	}
}

func TestAttackAdvantageScalesWithLie(t *testing.T) {
	s1 := NewScanner(DefaultScannerConfig(5))
	s2 := NewScanner(DefaultScannerConfig(5))
	honest := honestNetwork(200, 10e6)
	attacker := RelayState{Name: "evil", CapacityBps: 10e6, UtilizationFrac: 0.5}
	small, err := s1.AttackAdvantage(honest, attacker, 10)
	if err != nil {
		t.Fatal(err)
	}
	large, err := s2.AttackAdvantage(honest, attacker, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if large <= small {
		t.Fatalf("bigger lies should pay more: %v vs %v", small, large)
	}
}

func TestAttackAdvantageZeroCapacityAttacker(t *testing.T) {
	s := NewScanner(DefaultScannerConfig(5))
	honest := honestNetwork(10, 10e6)
	if _, err := s.AttackAdvantage(honest, RelayState{Name: "z"}, 10); err == nil {
		t.Fatal("zero-capacity attacker should error")
	}
}

func TestBandwidthFileWeightsOnly(t *testing.T) {
	s := NewScanner(DefaultScannerConfig(2))
	relays := honestNetwork(5, 10e6)
	res, err := s.Scan(relays)
	if err != nil {
		t.Fatal(err)
	}
	f := s.BandwidthFile(time.Hour, relays, res)
	if len(f.Entries) != 5 {
		t.Fatalf("entries: %d", len(f.Entries))
	}
	for _, e := range f.Entries {
		if e.CapacityBps != 0 {
			t.Fatalf("TorFlow must not report capacities (%s: %v)", e.Name, e.CapacityBps)
		}
		if e.WeightBps <= 0 {
			t.Fatalf("weight nonpositive for %s", e.Name)
		}
	}
}

func TestWeightErrorWorseThanPerfect(t *testing.T) {
	// TorFlow weights over an honest network should show substantial
	// network weight error versus true capacities (§3: 15–25 %).
	s := NewScanner(DefaultScannerConfig(9))
	relays := honestNetwork(300, 5e6)
	// Heterogeneous utilization exacerbates error.
	for i := range relays {
		relays[i].UtilizationFrac = 0.2 + 0.6*float64(i%10)/10
		relays[i].AdvertisedBps = relays[i].CapacityBps * (0.4 + 0.5*float64((i*7)%10)/10)
	}
	res, err := s.Scan(relays)
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]float64, len(relays))
	for i := range relays {
		caps[i] = relays[i].CapacityBps
	}
	nwe := stats.TotalVariationDistance(stats.Normalize(res.WeightBps), stats.Normalize(caps))
	if nwe < 0.05 {
		t.Fatalf("TorFlow NWE unrealistically low: %v", nwe)
	}
	if nwe > 0.6 {
		t.Fatalf("TorFlow NWE unrealistically high: %v", nwe)
	}
	if math.IsNaN(nwe) {
		t.Fatal("NWE is NaN")
	}
}
