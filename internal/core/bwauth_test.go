package core

import (
	"context"
	"math"
	"testing"

	"flashflow/internal/relay"
)

func newTestBWAuth(name string, seed int64, targets map[string]float64) *BWAuth {
	b := NewSimBackend(paperPaths(), seed)
	for n, capBps := range targets {
		b.AddTarget(n, honestTarget(capBps))
	}
	return NewBWAuth(name, paperTeam(), b, DefaultParams())
}

func TestBWAuthMeasureTargetStoresEstimate(t *testing.T) {
	a := newTestBWAuth("bw1", 1, map[string]float64{"r1": 200e6})
	a.SetEstimate("r1", 200e6)
	out, err := a.MeasureTarget(context.Background(), "r1", 0)
	if err != nil {
		t.Fatal(err)
	}
	est, ok := a.Estimate("r1")
	if !ok || est != out.EstimateBps {
		t.Fatalf("estimate not stored: %v %v", est, ok)
	}
}

func TestBWAuthNewRelayUsesPrior(t *testing.T) {
	// Without a stored estimate, the BWAuth starts from the percentile
	// prior (falling back to 50 Mbit/s) and still converges on a 400
	// Mbit/s relay via the doubling loop.
	a := newTestBWAuth("bw1", 2, map[string]float64{"fresh": 400e6})
	out, err := a.MeasureTarget(context.Background(), "fresh", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Conclusive {
		t.Fatalf("not conclusive: %+v", out.Attempts)
	}
	if len(out.Attempts) < 2 {
		t.Fatalf("expected escalation from the 50 Mbit prior, got %d attempts", len(out.Attempts))
	}
	rel := out.EstimateBps / 400e6
	if rel < 0.8 || rel > 1.05 {
		t.Fatalf("estimate rel=%v", rel)
	}
}

func TestBWAuthMeasureAllAndBandwidthFile(t *testing.T) {
	targets := map[string]float64{"a": 100e6, "b": 300e6}
	a := newTestBWAuth("bw1", 3, targets)
	for n, c := range targets {
		a.SetEstimate(n, c)
	}
	outcomes, errs := a.MeasureAll(context.Background(), []string{"a", "b"})
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	if len(outcomes) != 2 {
		t.Fatalf("outcomes: %d", len(outcomes))
	}
	f := a.BandwidthFile(0)
	if len(f.Entries) != 2 {
		t.Fatalf("bandwidth file entries: %d", len(f.Entries))
	}
	for _, e := range f.Entries {
		if e.CapacityBps != e.WeightBps || e.CapacityBps <= 0 {
			t.Fatalf("entry %s: %+v", e.Name, e)
		}
	}
}

func TestRunPeriodMedianAcrossBWAuths(t *testing.T) {
	targets := map[string]float64{"a": 150e6, "b": 600e6}
	auths := make([]*BWAuth, 3)
	for i := range auths {
		auths[i] = newTestBWAuth("bw", int64(100+i), targets)
		for n, c := range targets {
			auths[i].SetEstimate(n, c)
		}
	}
	res := RunPeriod(context.Background(), auths, []string{"a", "b"})
	if len(res.Errors) != 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	for n, trueCap := range targets {
		est := res.MedianEstimates[n]
		rel := est / trueCap
		if rel < 0.8 || rel > 1.05 {
			t.Fatalf("relay %s: median rel=%v", n, rel)
		}
	}
	if len(res.PerBWAuth) != 3 {
		t.Fatalf("per-bwauth outcomes: %d", len(res.PerBWAuth))
	}
}

func TestRunPeriodMedianResistsOneBadTeam(t *testing.T) {
	// One BWAuth's backend systematically reads 2× high (e.g. a broken or
	// malicious team); the median of 3 stays near truth.
	targets := map[string]float64{"a": 200e6}
	good1 := newTestBWAuth("g1", 11, targets)
	good2 := newTestBWAuth("g2", 12, targets)
	bad := NewBWAuth("bad", paperTeam(), doublingBackend{inner: NewSimBackendWithTarget(13, "a", 200e6)}, DefaultParams())
	for _, a := range []*BWAuth{good1, good2, bad} {
		a.SetEstimate("a", 200e6)
	}
	res := RunPeriod(context.Background(), []*BWAuth{good1, good2, bad}, []string{"a"})
	rel := res.MedianEstimates["a"] / 200e6
	if rel < 0.8 || rel > 1.1 {
		t.Fatalf("median with one bad team: rel=%v", rel)
	}
}

// NewSimBackendWithTarget is a test helper building a one-target backend.
func NewSimBackendWithTarget(seed int64, name string, capBps float64) *SimBackend {
	b := NewSimBackend(paperPaths(), seed)
	b.AddTarget(name, honestTarget(capBps))
	return b
}

// doublingBackend wraps a backend and doubles every reported byte count.
type doublingBackend struct{ inner Backend }

func (d doublingBackend) RunMeasurement(ctx context.Context, target string, alloc Allocation, seconds int, sink SampleSink) (MeasurementData, error) {
	data, err := d.inner.RunMeasurement(ctx, target, alloc, seconds, sink)
	if err != nil {
		return data, err
	}
	for i := range data.MeasBytes {
		for j := range data.MeasBytes[i] {
			data.MeasBytes[i][j] *= 2
		}
	}
	return data, nil
}

func TestBWAuthForgingRelayReportedAsError(t *testing.T) {
	b := NewSimBackend(paperPaths(), 21)
	tgt := &SimTarget{
		Relay:      relay.New(relay.Config{Name: "f", TorCapBps: 250e6}),
		LinkBps:    954e6,
		Behavior:   BehaviorForgeEcho,
		ForgeBoost: 2,
	}
	b.AddTarget("f", tgt)
	a := NewBWAuth("bw", paperTeam(), b, DefaultParams())
	a.SetEstimate("f", 250e6)
	_, errs := a.MeasureAll(context.Background(), []string{"f"})
	if len(errs) != 1 {
		t.Fatalf("expected one error, got %v", errs)
	}
}

func TestBWAuthHistoryFeedsPrior(t *testing.T) {
	a := newTestBWAuth("bw", 31, map[string]float64{"x": 100e6})
	a.SetEstimate("x", 100e6)
	if _, err := a.MeasureTarget(context.Background(), "x", 0); err != nil {
		t.Fatal(err)
	}
	prior := NewRelayPrior(a.history, a.Params)
	if math.Abs(prior-100e6)/100e6 > 0.25 {
		t.Fatalf("prior from history: %v", prior)
	}
}

// firstAllocRecorder records the total allocation of the first slot
// each relay is offered.
type firstAllocRecorder struct {
	Backend
	first map[string]float64
}

func (r *firstAllocRecorder) RunMeasurement(ctx context.Context, target string, alloc Allocation, seconds int, sink SampleSink) (MeasurementData, error) {
	if _, ok := r.first[target]; !ok {
		r.first[target] = alloc.TotalBps
	}
	return r.Backend.RunMeasurement(ctx, target, alloc, seconds, sink)
}

// TestMeasureTargetStartingPrior pins where the doubling loop's z0 comes
// from: the BWAuth's positive estimate, ignoring the caller's prior; for
// a relay without one, the caller's positive prior; with neither, the
// new-relay percentile of the BWAuth's history.
func TestMeasureTargetStartingPrior(t *testing.T) {
	p := DefaultParams()
	rec := &firstAllocRecorder{Backend: newFixedBackend(len(paperTeam()), p.SlotSeconds, 100e6/8), first: map[string]float64{}}
	a := NewBWAuth("bw1", paperTeam(), rec, p)
	a.history = []float64{10e6, 20e6, 30e6, 40e6}
	a.SetEstimate("known", 60e6)
	a.SetEstimate("zeroed", 0)
	for _, tc := range []struct {
		relay     string
		prior, z0 float64
	}{
		// First, while the history is still the one seeded above.
		{"unseeded", 0, NewRelayPrior(a.history, p)},
		{"known", 5e6, 60e6},
		{"fresh", 5e6, 5e6},
		{"zeroed", 7e6, 7e6},
	} {
		if _, err := a.MeasureTarget(context.Background(), tc.relay, tc.prior); err != nil {
			t.Fatal(err)
		}
		if got, want := rec.first[tc.relay], RequiredBps(tc.z0, p); got != want {
			t.Errorf("%s with prior %g: first allocation %g, want RequiredBps(%g) = %g", tc.relay, tc.prior, got, tc.z0, want)
		}
	}
}
