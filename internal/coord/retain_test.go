package coord

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"flashflow/internal/core"
	"flashflow/internal/store"
)

// echoFailOnce fails the first measurement of one relay as a forged
// echo, so the coordinator records §5 evidence for it, and forwards
// every other call.
type echoFailOnce struct {
	core.Backend
	relay string

	mu     sync.Mutex
	failed bool
}

func (b *echoFailOnce) RunMeasurement(ctx context.Context, target string, alloc core.Allocation, seconds int, sink core.SampleSink) (core.MeasurementData, error) {
	b.mu.Lock()
	fail := target == b.relay && !b.failed
	b.failed = b.failed || fail
	b.mu.Unlock()
	if fail {
		return core.MeasurementData{}, fmt.Errorf("echo check: %w", core.ErrMeasurementFailed)
	}
	return b.Backend.RunMeasurement(ctx, target, alloc, seconds, sink)
}

// TestChurnKeepsOnlyThePopulation: relays leave and rejoin across
// rounds. After every round each per-relay table — every BWAuth's
// estimates, the limiter's buckets, the coordinator's priors and the
// round's estimates — holds exactly that round's population, while the
// departed liar's anomaly record survives anomalyRetainRounds rounds and
// is then forgotten.
func TestChurnKeepsOnlyThePopulation(t *testing.T) {
	caps := map[string]float64{"a": 10e6, "b": 20e6, "c": 30e6, "liar": 15e6}
	pops := map[int][]string{
		1: {"a", "b", "c", "liar"},
		2: {"a", "c"}, // b and liar depart
	}
	// b rejoins in round 3; in round 10 the liar, last seen in round 1,
	// has been gone longer than the window.
	for round := 3; round <= 2+anomalyRetainRounds; round++ {
		pops[round] = []string{"a", "b", "c"}
	}
	p := testParams()
	auths := []*core.BWAuth{
		testAuth("bw0", &echoFailOnce{Backend: newFakeBackend(caps), relay: "liar"}, p),
		testAuth("bw1", newFakeBackend(caps), p),
	}
	source := &churnSource{members: func(round int) []core.RelayEstimate {
		var rs []core.RelayEstimate
		for _, name := range pops[round] {
			rs = append(rs, core.RelayEstimate{Name: name, EstimateBps: caps[name]})
		}
		return rs
	}}
	var c *Coordinator
	checked := 0
	check := func(rep RoundReport) {
		want := slices.Sorted(slices.Values(pops[rep.Round]))
		keys := func(table string, got []string) {
			t.Helper()
			if slices.Sort(got); !slices.Equal(got, want) {
				t.Errorf("round %d: %s holds %v, population %v", rep.Round, table, got, want)
			}
		}
		keys("report estimates", slices.Collect(maps.Keys(rep.Estimates)))
		keys("coordinator priors", slices.Collect(maps.Keys(c.Priors())))
		c.limiter.mu.Lock()
		keys("limiter buckets", slices.Collect(maps.Keys(c.limiter.buckets)))
		c.limiter.mu.Unlock()
		for _, a := range auths {
			var est []string
			for _, name := range slices.Sorted(maps.Keys(caps)) {
				if _, ok := a.Estimate(name); ok {
					est = append(est, name)
				}
			}
			keys(a.Name+" estimates", est)
		}
		if _, ok := c.Anomalies("liar"); ok != (rep.Round <= 1+anomalyRetainRounds) {
			t.Errorf("round %d: liar's anomaly record present=%v, want %v", rep.Round, ok, rep.Round <= 1+anomalyRetainRounds)
		}
		checked++
	}
	var err error
	c, err = New(Config{
		Params:              p,
		Workers:             2,
		MaxAttempts:         2,
		RetryBase:           time.Millisecond,
		RetryMax:            2 * time.Millisecond,
		RelayAttemptsPerSec: 1e6,
		RelayBurst:          10,
		MaxRounds:           len(pops),
		OnRound:             check,
	}, auths, source)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if checked != len(pops) {
		t.Fatalf("checked %d rounds, want %d", checked, len(pops))
	}
}

// TestDeferralsAndSalvageReport runs one round that salvages an
// inconclusive estimate after a capacity deferral and a rate-limit
// deferral, next to conclusive and unmeasured relays, and pins the
// report field by field; the values are those of the map-keyed
// collector the dense one replaced. Every relay is new, so the schedule
// places them FCFS into slot 0 in input order, and one worker with a
// limiter clock that ticks once per Allow makes every deferral
// deterministic.
func TestDeferralsAndSalvageReport(t *testing.T) {
	caps := map[string]float64{"ok1": 10e6, "ok2": 30e6, "dead": 10e6, "flap": 1e12}
	backend := newFakeBackend(caps)
	backend.failures["dead"] = -1
	backend.capErrs["flap"] = 1  // call 0: the team's capacity is held elsewhere
	backend.failFrom["flap"] = 2 // call 1 concludes nothing, call 2 drops
	p := testParams()
	auths := []*core.BWAuth{testAuth("bw0", backend, p)}
	var rep RoundReport
	c, err := New(Config{
		Params:              p,
		Workers:             1,
		MaxAttempts:         1,
		RetryBase:           20 * time.Millisecond,
		RetryMax:            40 * time.Millisecond,
		RelayAttemptsPerSec: 0.5,
		RelayBurst:          1,
		MaxRounds:           1,
		OnRound:             func(r RoundReport) { rep = r },
	}, auths, StaticRelays{{Name: "ok1"}, {Name: "ok2"}, {Name: "dead"}, {Name: "flap"}})
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(1000, 0)
	c.limiter.now = func() time.Time {
		now := clock
		clock = clock.Add(time.Second)
		return now
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantEst := map[string]float64{"ok1": 10e6, "ok2": 30e6, "flap": 1.4765625e8}
	wantUnmeasured := []Unmeasured{{Relay: "dead", BWAuth: "bw0", Attempts: 1, Reason: "measure dead: fake: dead unreachable"}}
	if !reflect.DeepEqual(rep.Estimates, wantEst) {
		t.Errorf("estimates %v, want %v", rep.Estimates, wantEst)
	}
	if !reflect.DeepEqual(rep.Unmeasured, wantUnmeasured) {
		t.Errorf("unmeasured %+v, want %+v", rep.Unmeasured, wantUnmeasured)
	}
	if rep.Conclusive != 2 || rep.Inconclusive != 1 || rep.Retries != 2 || rep.RateLimited != 1 {
		t.Errorf("conclusive %d inconclusive %d retries %d rate-limited %d, want 2 1 2 1",
			rep.Conclusive, rep.Inconclusive, rep.Retries, rep.RateLimited)
	}
}

// allocRecorder records the first allocation each relay's measurement
// is offered.
type allocRecorder struct {
	core.Backend

	mu    sync.Mutex
	first map[string]float64
}

func (r *allocRecorder) RunMeasurement(ctx context.Context, target string, alloc core.Allocation, seconds int, sink core.SampleSink) (core.MeasurementData, error) {
	r.mu.Lock()
	if _, ok := r.first[target]; !ok {
		r.first[target] = alloc.TotalBps
	}
	r.mu.Unlock()
	return r.Backend.RunMeasurement(ctx, target, alloc, seconds, sink)
}

// TestRecoveredPriorsSeedFirstAllocation: after a restart from a
// FileStore, fresh BWAuths (a new process) size each relay's first
// allocation of the first round from the recovered prior — the seeding
// runRound does from the population, with no separate pass in recover.
func TestRecoveredPriorsSeedFirstAllocation(t *testing.T) {
	caps := map[string]float64{"r1": 10e6, "r2": 25e6, "r3": 40e6}
	// The consensus under-advertises every relay, so the measured priors
	// differ from the source's estimates.
	source := StaticRelays{{Name: "r1", EstimateBps: 4e6}, {Name: "r2", EstimateBps: 4e6}, {Name: "r3", EstimateBps: 4e6}}
	p := testParams()
	dir := t.TempDir()
	open := func() *store.FileStore {
		s, err := store.Open(dir, store.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cfg := Config{Params: p, Workers: 1, RetryBase: time.Millisecond, MaxRounds: 2}

	s1 := open()
	cfg.Store = s1
	c1, err := New(cfg, []*core.BWAuth{testAuth("bw0", newFakeBackend(caps), p), testAuth("bw1", newFakeBackend(caps), p)}, source)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	recs := []*allocRecorder{
		{Backend: newFakeBackend(caps), first: map[string]float64{}},
		{Backend: newFakeBackend(caps), first: map[string]float64{}},
	}
	s2 := open()
	defer s2.Close()
	cfg.Store, cfg.MaxRounds = s2, 1
	c2, err := New(cfg, []*core.BWAuth{testAuth("bw0", recs[0], p), testAuth("bw1", recs[1], p)}, source)
	if err != nil {
		t.Fatal(err)
	}
	recovered := c2.Priors()
	if !reflect.DeepEqual(recovered, c1.Priors()) {
		t.Fatalf("recovered priors %v, live %v", recovered, c1.Priors())
	}
	if err := c2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for b, rec := range recs {
		for name, prior := range recovered {
			if got, want := rec.first[name], core.RequiredBps(prior, p); got != want {
				t.Errorf("bw%d %s: first allocation %g, want RequiredBps(recovered prior %g) = %g", b, name, got, prior, want)
			}
		}
	}
}
