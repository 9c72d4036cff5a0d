package coord

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"flashflow/internal/core"
	"flashflow/internal/dirauth"
)

// readV3BW loads and parses a snapshot file.
func readV3BW(path string) (*dirauth.BandwidthFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dirauth.ParseV3BW(f)
}

// fakeBackend is a deterministic core.Backend: a target echoes
// min(capacity, allocation) every second, so measurements behave like an
// ideal noise-free relay — conclusive exactly when the allocation carries
// the §4.2 excess factor over true capacity. Per-target failure budgets,
// a global block channel, and an optional per-second delay drive the
// retry, shutdown, and cancellation-latency tests.
type fakeBackend struct {
	mu          sync.Mutex
	capBps      map[string]float64
	failures    map[string]int // fail this many calls (-1: always)
	capErrs     map[string]int // fail this many calls with ErrInsufficientCapacity (-1: always)
	failFrom    map[string]int // fail every call from this per-target call index (1-based) on
	callsPer    map[string]int
	allocs      []float64 // TotalBps per RunMeasurement call, in order
	started     int
	finished    int
	block       chan struct{}  // when non-nil, RunMeasurement waits on it (or ctx)
	secondDelay time.Duration  // when >0, each simulated second costs this much wall clock
	lateSeconds map[string]int // seconds emitted after ctx cancellation, per target
}

func newFakeBackend(caps map[string]float64) *fakeBackend {
	return &fakeBackend{
		capBps:      caps,
		failures:    make(map[string]int),
		capErrs:     make(map[string]int),
		failFrom:    make(map[string]int),
		callsPer:    make(map[string]int),
		lateSeconds: make(map[string]int),
	}
}

func (f *fakeBackend) RunMeasurement(ctx context.Context, target string, alloc core.Allocation, seconds int, sink core.SampleSink) (core.MeasurementData, error) {
	f.mu.Lock()
	f.started++
	f.allocs = append(f.allocs, alloc.TotalBps)
	block := f.block
	delay := f.secondDelay
	fail := false
	if n := f.failures[target]; n != 0 {
		fail = true
		if n > 0 {
			f.failures[target] = n - 1
		}
	}
	capErr := false
	if n := f.capErrs[target]; n != 0 {
		capErr = true
		if n > 0 {
			f.capErrs[target] = n - 1
		}
	}
	if from := f.failFrom[target]; from > 0 && f.callsPer[target] >= from {
		fail = true
	}
	f.callsPer[target]++
	capBps, known := f.capBps[target]
	f.mu.Unlock()

	defer func() {
		f.mu.Lock()
		f.finished++
		f.mu.Unlock()
	}()
	if block != nil {
		select {
		case <-block:
		case <-ctx.Done():
			return core.MeasurementData{}, ctx.Err()
		}
	}
	if capErr {
		return core.MeasurementData{}, fmt.Errorf("fake alloc: %w", core.ErrInsufficientCapacity)
	}
	if fail {
		return core.MeasurementData{}, fmt.Errorf("fake: %s unreachable", target)
	}
	if !known {
		return core.MeasurementData{}, fmt.Errorf("fake: unknown target %s", target)
	}
	echo := math.Min(capBps, alloc.TotalBps)
	series := make([]float64, 0, seconds)
	for j := 0; j < seconds; j++ {
		if err := ctx.Err(); err != nil {
			return core.MeasurementData{MeasBytes: [][]float64{series}}, err
		}
		if delay > 0 {
			timer := time.NewTimer(delay)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return core.MeasurementData{MeasBytes: [][]float64{series}}, ctx.Err()
			}
			if ctx.Err() != nil {
				// Emitting a second after cancellation counts against the
				// prompt-teardown contract; record it so tests can bound
				// the teardown in simulated seconds.
				f.mu.Lock()
				f.lateSeconds[target]++
				f.mu.Unlock()
			}
		}
		series = append(series, echo/8) // bytes per second
		if sink != nil {
			sink(core.Sample{Second: j, MeasBytes: series[j : j+1]})
		}
	}
	return core.MeasurementData{MeasBytes: [][]float64{series}}, nil
}

func (f *fakeBackend) calls() (started, finished int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.started, f.finished
}

func testParams() core.Params {
	p := core.DefaultParams()
	p.SlotSeconds = 2
	return p
}

func testAuth(name string, backend core.Backend, p core.Params) *core.BWAuth {
	team := []*core.Measurer{
		{Name: name + "-m1", CapacityBps: 500e6, Cores: 2},
		{Name: name + "-m2", CapacityBps: 500e6, Cores: 2},
	}
	return core.NewBWAuth(name, team, backend, p)
}

// TestCoordinatorConsecutiveRounds runs three rounds over a small
// population with two BWAuths and checks that every round measures every
// relay conclusively and the medians land on the true capacities.
func TestCoordinatorConsecutiveRounds(t *testing.T) {
	caps := map[string]float64{
		"r1": 10e6, "r2": 25e6, "r3": 40e6, "r4": 60e6, "r5": 15e6, "r6": 33e6,
	}
	p := testParams()
	auths := []*core.BWAuth{
		testAuth("bw0", newFakeBackend(caps), p),
		testAuth("bw1", newFakeBackend(caps), p),
	}
	var source StaticRelays
	for name, c := range caps {
		source = append(source, core.RelayEstimate{Name: name, EstimateBps: c})
	}

	var reports []RoundReport
	c, err := New(Config{
		Params:      p,
		Workers:     4,
		MaxAttempts: 3,
		RetryBase:   time.Millisecond,
		RetryMax:    4 * time.Millisecond,
		MaxRounds:   3,
		OnRound:     func(r RoundReport) { reports = append(reports, r) },
	}, auths, source)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	if len(reports) != 3 {
		t.Fatalf("rounds completed: %d", len(reports))
	}
	for _, rep := range reports {
		if rep.Scheduled != len(caps)*len(auths) {
			t.Fatalf("round %d scheduled %d slots, want %d", rep.Round, rep.Scheduled, len(caps)*len(auths))
		}
		if rep.Conclusive != rep.Scheduled || len(rep.Unmeasured) != 0 {
			t.Fatalf("round %d: %s", rep.Round, rep)
		}
		for name, want := range caps {
			got, ok := rep.Estimates[name]
			if !ok {
				t.Fatalf("round %d: no estimate for %s", rep.Round, name)
			}
			if math.Abs(got-want)/want > 1e-6 {
				t.Fatalf("round %d: %s estimate %v, want %v", rep.Round, name, got, want)
			}
		}
	}
	st := c.Status()
	if st.Counters["coord_rounds_completed"] != 3 {
		t.Fatalf("counters: %v", st.Counters)
	}
	if st.LastRound == nil || st.LastRound.Round != 3 {
		t.Fatalf("status last round: %+v", st.LastRound)
	}
}

// TestFailingSlotsRetriedThenReported pins the retry edge case: a relay
// failing on every attempt must land in the round report as unmeasured
// with its attempt count — not silently dropped — while a relay that
// recovers after one failure is still measured.
func TestFailingSlotsRetriedThenReported(t *testing.T) {
	caps := map[string]float64{"good": 20e6, "flaky": 30e6, "dead": 25e6}
	backend := newFakeBackend(caps)
	backend.failures["dead"] = -1 // every attempt fails
	backend.failures["flaky"] = 1 // first attempt fails, retry succeeds

	p := testParams()
	auths := []*core.BWAuth{testAuth("bw0", backend, p)}
	source := StaticRelays{
		{Name: "good", EstimateBps: 20e6},
		{Name: "flaky", EstimateBps: 30e6},
		{Name: "dead", EstimateBps: 25e6},
	}
	c, err := New(Config{
		Params:      p,
		Workers:     2,
		MaxAttempts: 3,
		RetryBase:   time.Millisecond,
		RetryMax:    4 * time.Millisecond,
		MaxRounds:   1,
	}, auths, source)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := c.Status().LastRound
	if rep == nil {
		t.Fatal("no round report")
	}
	if len(rep.Unmeasured) != 1 {
		t.Fatalf("unmeasured: %+v", rep.Unmeasured)
	}
	um := rep.Unmeasured[0]
	if um.Relay != "dead" || um.BWAuth != "bw0" {
		t.Fatalf("unmeasured entry: %+v", um)
	}
	if um.Attempts != 3 {
		t.Fatalf("dead should burn all 3 attempts, got %d", um.Attempts)
	}
	if !strings.Contains(um.Reason, "unreachable") {
		t.Fatalf("reason should carry the failure: %q", um.Reason)
	}
	if rep.Retries < 3 { // dead retried twice, flaky once
		t.Fatalf("retries: %d", rep.Retries)
	}
	for _, name := range []string{"good", "flaky"} {
		if _, ok := rep.Estimates[name]; !ok {
			t.Fatalf("%s should be measured: %v", name, rep.Estimates)
		}
	}
	if _, ok := rep.Estimates["dead"]; ok {
		t.Fatal("dead must not have an estimate")
	}
}

// TestRoundsFeedPriors verifies the feedback loop: a relay whose source
// estimate is far below its capacity is measured with a small first-round
// allocation, but the next round's first allocation starts from the
// coordinator's measured median.
func TestRoundsFeedPriors(t *testing.T) {
	const trueCap = 80e6
	backend := newFakeBackend(map[string]float64{"r": trueCap})
	p := testParams()
	auths := []*core.BWAuth{testAuth("bw0", backend, p)}
	source := StaticRelays{{Name: "r", EstimateBps: 5e6}}

	var round1Calls int
	c, err := New(Config{
		Params:      p,
		Workers:     1,
		MaxAttempts: 2,
		RetryBase:   time.Millisecond,
		MaxRounds:   2,
		OnRound: func(r RoundReport) {
			if r.Round == 1 {
				round1Calls, _ = backend.calls()
			}
		},
	}, auths, source)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	priors := c.Priors()
	if math.Abs(priors["r"]-trueCap)/trueCap > 1e-6 {
		t.Fatalf("prior after rounds: %v", priors["r"])
	}
	backend.mu.Lock()
	allocs := append([]float64(nil), backend.allocs...)
	backend.mu.Unlock()
	if round1Calls < 2 {
		t.Fatalf("low prior should need multiple doubling attempts in round 1, got %d", round1Calls)
	}
	if len(allocs) <= round1Calls {
		t.Fatal("round 2 never measured")
	}
	// Round 2's first allocation starts from the measured capacity, not
	// the stale source estimate.
	firstRound2 := allocs[round1Calls]
	f := p.ExcessFactor()
	if firstRound2 < 0.9*f*trueCap {
		t.Fatalf("round 2 first allocation %v should start near f·cap = %v", firstRound2, f*trueCap)
	}
	// And round 1's first allocation reflected the low prior.
	if allocs[0] > 0.5*f*trueCap {
		t.Fatalf("round 1 first allocation %v unexpectedly high", allocs[0])
	}
}

// TestGracefulShutdownCancelsInFlight pins the shutdown contract of the
// streaming pipeline: on cancellation, measurements already executing are
// cancelled (the backend sees ctx.Done and returns immediately — the block
// channel is never released), every backend call still returns (started ==
// finished), queued and cancelled slots are reported unmeasured with a
// shutdown reason, and the final report is marked partial. The old
// contract waited out in-flight slots; the refactored coordinator must
// not.
func TestGracefulShutdownCancelsInFlight(t *testing.T) {
	caps := make(map[string]float64)
	var source StaticRelays
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("r%d", i)
		caps[name] = 20e6
		source = append(source, core.RelayEstimate{Name: name, EstimateBps: 20e6})
	}
	backend := newFakeBackend(caps)
	backend.block = make(chan struct{}) // never closed: only cancellation can release a slot
	p := testParams()
	auths := []*core.BWAuth{testAuth("bw0", backend, p)}

	c, err := New(Config{
		Params:      p,
		Workers:     2,
		MaxAttempts: 2,
		RetryBase:   time.Millisecond,
	}, auths, source)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()

	// Wait until both workers hold an in-flight measurement.
	deadline := time.Now().Add(5 * time.Second)
	for {
		started, _ := backend.calls()
		if started >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("workers never started measuring")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}

	started, finished := backend.calls()
	if started != finished {
		t.Fatalf("in-flight measurements not drained: started %d finished %d", started, finished)
	}
	rep := c.Status().LastRound
	if rep == nil || !rep.Partial {
		t.Fatalf("final report should be partial: %+v", rep)
	}
	if rep.Conclusive != 0 {
		t.Fatalf("no slot can conclude when the backend only unblocks on cancel: %+v", rep)
	}
	if len(rep.Unmeasured) != rep.Scheduled {
		t.Fatalf("every slot must be reported: %d unmeasured, %d scheduled",
			len(rep.Unmeasured), rep.Scheduled)
	}
	for _, um := range rep.Unmeasured {
		if !strings.Contains(um.Reason, "shutdown") {
			t.Fatalf("reason: %+v", um)
		}
	}
}

// TestShutdownCancellationLatency is the headline latency guarantee of the
// streaming refactor: with a deliberately slow backend (200 ms per
// simulated second, 30-second slots — a six-second slot), cancelling Run's
// context must return well under one slot length, and the backend must
// stop within two simulated seconds of the cancellation.
func TestShutdownCancellationLatency(t *testing.T) {
	const perSecond = 200 * time.Millisecond
	backend := newFakeBackend(map[string]float64{"slow": 20e6})
	backend.secondDelay = perSecond
	p := testParams()
	p.SlotSeconds = 30 // full slot = 6 s of wall clock on this backend
	auths := []*core.BWAuth{testAuth("bw0", backend, p)}
	c, err := New(Config{
		Params:      p,
		Workers:     1,
		MaxAttempts: 1,
		RetryBase:   time.Millisecond,
	}, auths, StaticRelays{{Name: "slow", EstimateBps: 20e6}})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()

	// Let the slot stream a few seconds, then pull the plug.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := c.Status(); len(st.Measuring) > 0 && st.Measuring[0].Second >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never started streaming")
		}
		time.Sleep(time.Millisecond)
	}
	cancelAt := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	latency := time.Since(cancelAt)
	slot := time.Duration(p.SlotSeconds) * perSecond
	if latency > slot/3 {
		t.Fatalf("shutdown latency %v not well under one slot (%v)", latency, slot)
	}
	backend.mu.Lock()
	late := backend.lateSeconds["slow"]
	backend.mu.Unlock()
	if late > 2 {
		t.Fatalf("backend emitted %d seconds after cancellation, want ≤ 2", late)
	}

	// The cancelled slot's completed seconds were salvaged into a partial
	// estimate rather than thrown away.
	rep := c.Status().LastRound
	if rep == nil || !rep.Partial {
		t.Fatalf("final report should be partial: %+v", rep)
	}
	if est := rep.Estimates["slow"]; est <= 0 {
		t.Fatalf("cancelled slot's completed seconds should be salvaged: %+v", rep)
	}
}

// TestStatusReportsLiveProgress checks the progress tee: while a slow slot
// streams, Status().Measuring exposes the relay, its allocation, and an
// advancing second counter.
func TestStatusReportsLiveProgress(t *testing.T) {
	backend := newFakeBackend(map[string]float64{"r": 20e6})
	backend.secondDelay = 20 * time.Millisecond
	p := testParams()
	p.SlotSeconds = 50
	auths := []*core.BWAuth{testAuth("bw0", backend, p)}
	c, err := New(Config{
		Params:      p,
		Workers:     1,
		MaxAttempts: 1,
		RetryBase:   time.Millisecond,
		MaxRounds:   1,
	}, auths, StaticRelays{{Name: "r", EstimateBps: 20e6}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Run(context.Background()) }()

	deadline := time.Now().Add(5 * time.Second)
	var seen SlotProgress
	for {
		st := c.Status()
		if len(st.Measuring) > 0 && st.Measuring[0].Second >= 2 {
			seen = st.Measuring[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no live progress observed")
		}
		time.Sleep(time.Millisecond)
	}
	if seen.Relay != "r" || seen.BWAuth != "bw0" {
		t.Fatalf("progress identity: %+v", seen)
	}
	if seen.AllocatedBps <= 0 || seen.Bytes <= 0 || seen.SlotSeconds != 50 {
		t.Fatalf("progress payload: %+v", seen)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := len(c.Status().Measuring); got != 0 {
		t.Fatalf("progress entries must be cleared after the slot: %d", got)
	}
}

// TestStatusDuringConcurrentSlots polls Status while several slots stream
// at once: the per-second progress path takes no coordinator lock, so
// this is the test the race detector watches. Every snapshot must be
// internally sane and the table must drain when the rounds end.
func TestStatusDuringConcurrentSlots(t *testing.T) {
	caps := map[string]float64{"r1": 10e6, "r2": 20e6, "r3": 30e6, "r4": 40e6, "r5": 50e6, "r6": 60e6}
	backend := newFakeBackend(caps)
	backend.secondDelay = time.Millisecond
	p := testParams()
	p.SlotSeconds = 10
	auths := []*core.BWAuth{testAuth("bw0", backend, p), testAuth("bw1", backend, p)}
	var source StaticRelays
	for name, c := range caps {
		source = append(source, core.RelayEstimate{Name: name, EstimateBps: c})
	}
	c, err := New(Config{Params: p, Workers: 4, MaxRounds: 2, RetryBase: time.Millisecond}, auths, source)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Run(context.Background()) }()
	polls := 0
	for running := true; running; polls++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		for _, m := range c.Status().Measuring {
			if m.Second < 0 || m.Second > m.SlotSeconds || m.Bytes < 0 || m.AllocatedBps <= 0 {
				t.Fatalf("inconsistent live progress: %+v", m)
			}
		}
	}
	if got := len(c.Status().Measuring); got != 0 {
		t.Fatalf("progress entries left after the rounds: %d (%d polls)", got, polls)
	}
}

// gatedBackend streams one sample per slot, then holds the slot open
// until its release channel closes.
type gatedBackend struct {
	streamed chan struct{}
	release  map[float64]chan struct{} // keyed by the slot's TotalBps
}

func (g *gatedBackend) RunMeasurement(ctx context.Context, target string, alloc core.Allocation, seconds int, sink core.SampleSink) (core.MeasurementData, error) {
	sink(core.Sample{Second: 0, MeasBytes: []float64{alloc.TotalBps}})
	g.streamed <- struct{}{}
	<-g.release[alloc.TotalBps]
	return core.MeasurementData{}, nil
}

// TestProgressTeeKeepsNewerEntry: when a second attempt on the same relay
// starts before the first one's slot has returned, the first one's
// cleanup must not delete the second one's progress entry.
func TestProgressTeeKeepsNewerEntry(t *testing.T) {
	g := &gatedBackend{
		streamed: make(chan struct{}),
		release:  map[float64]chan struct{}{1: make(chan struct{}), 2: make(chan struct{})},
	}
	p := testParams()
	c, err := New(Config{Params: p}, []*core.BWAuth{testAuth("bw0", g, p)}, StaticRelays{{Name: "r", EstimateBps: 1e6}})
	if err != nil {
		t.Fatal(err)
	}
	tee := c.auths[0].Backend
	returned := map[float64]chan struct{}{}
	for _, bps := range []float64{1, 2} {
		returned[bps] = make(chan struct{})
		go func() {
			defer close(returned[bps])
			_, _ = tee.RunMeasurement(context.Background(), "r", core.Allocation{TotalBps: bps}, 5, nil)
		}()
		<-g.streamed
	}
	measuring := func() []SlotProgress { return c.Status().Measuring }
	if m := measuring(); len(m) != 1 || m[0].AllocatedBps != 2 || m[0].Bytes != 2 || m[0].Second != 1 {
		t.Fatalf("progress while both slots run: %+v", m)
	}
	close(g.release[1])
	<-returned[1]
	if m := measuring(); len(m) != 1 || m[0].AllocatedBps != 2 {
		t.Fatalf("first slot's cleanup touched the second slot's entry: %+v", m)
	}
	close(g.release[2])
	<-returned[2]
	if m := measuring(); len(m) != 0 {
		t.Fatalf("progress entries after both slots: %+v", m)
	}
}

// TestCapacityCollisionsDeferWithoutBurningAttempts pins the contention
// edge case: ErrInsufficientCapacity means the allocation collided with
// in-flight measurements, so the slot is deferred with backoff without
// consuming its attempt budget — but only up to a bounded number of
// deferrals, after which the slot terminates as unmeasured.
func TestCapacityCollisionsDeferWithoutBurningAttempts(t *testing.T) {
	caps := map[string]float64{"contended": 20e6, "starved": 20e6}
	backend := newFakeBackend(caps)
	backend.capErrs["contended"] = 2 // two collisions, then capacity frees up
	backend.capErrs["starved"] = -1  // capacity never frees up
	p := testParams()
	auths := []*core.BWAuth{testAuth("bw0", backend, p)}
	c, err := New(Config{
		Params:      p,
		Workers:     2,
		MaxAttempts: 1, // deferrals must not consume this single attempt
		RetryBase:   time.Millisecond,
		RetryMax:    2 * time.Millisecond,
		MaxRounds:   1,
	}, auths, StaticRelays{
		{Name: "contended", EstimateBps: 20e6},
		{Name: "starved", EstimateBps: 20e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := c.Status().LastRound
	if _, ok := rep.Estimates["contended"]; !ok {
		t.Fatalf("contended should be measured once capacity frees: %+v", rep)
	}
	if len(rep.Unmeasured) != 1 || rep.Unmeasured[0].Relay != "starved" {
		t.Fatalf("starved should terminate unmeasured: %+v", rep.Unmeasured)
	}
	if !strings.Contains(rep.Unmeasured[0].Reason, "insufficient") {
		t.Fatalf("reason: %q", rep.Unmeasured[0].Reason)
	}
	if rep.Retries < 2 {
		t.Fatalf("deferrals should show as retries: %d", rep.Retries)
	}
}

// TestPartialOutcomeSalvagedOnError pins the salvage contract: a relay
// whose doubling loop produced an estimate before a later attempt errored
// is reported as inconclusively measured with that estimate, not dropped
// to unmeasured.
func TestPartialOutcomeSalvagedOnError(t *testing.T) {
	// Huge capacity keeps every estimate inconclusive (echo == alloc), and
	// from the second backend call on, every call errors.
	backend := newFakeBackend(map[string]float64{"droop": 1e12})
	backend.failFrom["droop"] = 1
	p := testParams()
	auths := []*core.BWAuth{testAuth("bw0", backend, p)}
	c, err := New(Config{
		Params:      p,
		Workers:     1,
		MaxAttempts: 2,
		RetryBase:   time.Millisecond,
		MaxRounds:   1,
	}, auths, StaticRelays{{Name: "droop", EstimateBps: 10e6}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := c.Status().LastRound
	if len(rep.Unmeasured) != 0 {
		t.Fatalf("partial estimate should be salvaged: %+v", rep.Unmeasured)
	}
	if rep.Inconclusive != 1 {
		t.Fatalf("inconclusive: %d", rep.Inconclusive)
	}
	if est := rep.Estimates["droop"]; est <= 0 {
		t.Fatalf("salvaged estimate missing: %v", rep.Estimates)
	}
}

// roundSource yields a different population per round.
type roundSource struct {
	mu   sync.Mutex
	pops [][]core.RelayEstimate
	i    int
}

func (s *roundSource) Relays() []core.RelayEstimate {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := s.i
	if idx >= len(s.pops) {
		idx = len(s.pops) - 1
	}
	s.i++
	return append([]core.RelayEstimate(nil), s.pops[idx]...)
}

// TestDepartedRelaysPruned checks a relay that leaves the population stops
// being published and its state is dropped everywhere.
func TestDepartedRelaysPruned(t *testing.T) {
	caps := map[string]float64{"stay": 10e6, "leave": 20e6}
	p := testParams()
	auths := []*core.BWAuth{testAuth("bw0", newFakeBackend(caps), p)}
	dir := t.TempDir()
	source := &roundSource{pops: [][]core.RelayEstimate{
		{{Name: "stay", EstimateBps: 10e6}, {Name: "leave", EstimateBps: 20e6}},
		{{Name: "stay", EstimateBps: 10e6}},
	}}
	c, err := New(Config{
		Params:      p,
		Workers:     2,
		MaxRounds:   2,
		RetryBase:   time.Millisecond,
		SnapshotDir: dir,
	}, auths, source)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Priors()["leave"]; ok {
		t.Fatal("departed relay still in priors")
	}
	f, err := readV3BW(c.Status().LastRound.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Lookup("leave"); ok {
		t.Fatalf("departed relay still published: %v", f.Entries)
	}
	if _, ok := f.Lookup("stay"); !ok {
		t.Fatalf("staying relay missing: %v", f.Entries)
	}
}

// TestPartialParamsRejected: a partially filled Params must be rejected by
// New rather than silently replaced with the defaults.
func TestPartialParamsRejected(t *testing.T) {
	auths := []*core.BWAuth{testAuth("bw0", newFakeBackend(nil), core.DefaultParams())}
	_, err := New(Config{
		Params: core.Params{Sockets: 8}, // SlotSeconds etc. missing
	}, auths, StaticRelays{})
	if err == nil {
		t.Fatal("partial Params should fail validation")
	}
}

// TestRateLimiterDefersFlappingRelay runs a population where one relay's
// bucket only allows a single attempt per round-trip and checks the
// deferral counters move while the relay still completes.
func TestRateLimiterDefersFlappingRelay(t *testing.T) {
	backend := newFakeBackend(map[string]float64{"r": 20e6})
	backend.failures["r"] = 2 // two failures force three attempts
	p := testParams()
	auths := []*core.BWAuth{testAuth("bw0", backend, p)}
	c, err := New(Config{
		Params:              p,
		Workers:             2,
		MaxAttempts:         5,
		RetryBase:           time.Millisecond,
		RetryMax:            2 * time.Millisecond,
		RelayAttemptsPerSec: 20,
		RelayBurst:          1,
		MaxRounds:           1,
	}, auths, StaticRelays{{Name: "r", EstimateBps: 20e6}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := c.Status().LastRound
	if _, ok := rep.Estimates["r"]; !ok {
		t.Fatalf("relay should eventually be measured: %+v", rep)
	}
	if rep.RateLimited == 0 {
		t.Fatal("limiter should have deferred at least one attempt")
	}
}

// TestSnapshotsWritten checks the periodic v3bw snapshots land on disk and
// parse back to the round's estimates — and that a relay that was never
// successfully measured does not appear with a fabricated capacity.
func TestSnapshotsWritten(t *testing.T) {
	caps := map[string]float64{"r1": 10e6, "r2": 30e6}
	p := testParams()
	backend := newFakeBackend(caps)
	backend.failures["ghost"] = -1 // never measured successfully
	auths := []*core.BWAuth{testAuth("bw0", backend, p)}
	dir := t.TempDir()
	c, err := New(Config{
		Params:      p,
		Workers:     2,
		MaxRounds:   2,
		RetryBase:   time.Millisecond,
		SnapshotDir: dir,
	}, auths, StaticRelays{
		{Name: "r1", EstimateBps: 10e6},
		{Name: "r2", EstimateBps: 30e6},
		{Name: "ghost", EstimateBps: 20e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := c.Status().LastRound
	if rep.SnapshotPath == "" {
		t.Fatal("no snapshot written")
	}
	if c.Status().Counters["coord_snapshots_written"] != 2 {
		t.Fatalf("counters: %v", c.Status().Counters)
	}
	f, err := readV3BW(rep.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range caps {
		e, ok := f.Lookup(name)
		if !ok {
			t.Fatalf("snapshot missing %s", name)
		}
		if math.Abs(e.CapacityBps-want)/want > 1e-6 {
			t.Fatalf("%s capacity in snapshot: %v", name, e.CapacityBps)
		}
	}
	// The unmeasurable relay's seeded prior must not be published.
	if _, ok := f.Lookup("ghost"); ok {
		t.Fatalf("never-measured relay published in snapshot: %v", f.Entries)
	}
}

// TestUnscheduledRelaysSurfaced: a relay whose required capacity exceeds
// every slot's team budget cannot be placed by the §4.3 scheduler; the
// coordinator must surface it in the round report, the status view, and
// the operational counters rather than silently skipping it.
func TestUnscheduledRelaysSurfaced(t *testing.T) {
	caps := map[string]float64{"r1": 10e6, "r2": 25e6, "whale": 5e9}
	p := testParams()
	auths := []*core.BWAuth{
		testAuth("bw0", newFakeBackend(caps), p),
		testAuth("bw1", newFakeBackend(caps), p),
	}
	source := StaticRelays{
		{Name: "r1", EstimateBps: 10e6},
		{Name: "r2", EstimateBps: 25e6},
		// Needs f·5e9 ≈ 14.8 Gbit/s of team capacity; the teams have 1.
		{Name: "whale", EstimateBps: 5e9},
	}
	var reports []RoundReport
	c, err := New(Config{
		Params:      p,
		Workers:     2,
		MaxAttempts: 2,
		RetryBase:   time.Millisecond,
		RetryMax:    4 * time.Millisecond,
		MaxRounds:   1,
		OnRound:     func(r RoundReport) { reports = append(reports, r) },
	}, auths, source)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("rounds: %d", len(reports))
	}
	rep := reports[0]
	if len(rep.Unscheduled) != 1 || rep.Unscheduled[0] != "whale" {
		t.Fatalf("unscheduled: %v", rep.Unscheduled)
	}
	// The schedulable relays still ran on both BWAuths.
	if rep.Scheduled != 4 || rep.Conclusive != 4 {
		t.Fatalf("scheduled/conclusive: %d/%d", rep.Scheduled, rep.Conclusive)
	}
	if _, ok := rep.Estimates["whale"]; ok {
		t.Fatal("unscheduled relay must not produce an estimate")
	}
	st := c.Status()
	if st.Unscheduled != 1 {
		t.Fatalf("status unscheduled: %d", st.Unscheduled)
	}
	if st.Counters["coord_relays_unscheduled"] != 1 {
		t.Fatalf("counter: %v", st.Counters["coord_relays_unscheduled"])
	}
}

// TestRoundArenasReused: the planning state kept across rounds (the
// population buffer and the schedule builder) is reused on a stable
// population, the builder's relay index answers the round's membership
// test, and every assignment's Index names the population entry the
// index-based job arena and collector key on.
func TestRoundArenasReused(t *testing.T) {
	caps := map[string]float64{"r1": 10e6, "r2": 25e6, "r3": 40e6}
	p := testParams()
	auths := []*core.BWAuth{testAuth("bw0", newFakeBackend(caps), p)}
	source := StaticRelays{
		{Name: "r1", EstimateBps: 10e6},
		{Name: "r2", EstimateBps: 25e6},
		{Name: "r3", EstimateBps: 40e6},
	}
	c, err := New(Config{
		Params:      p,
		Workers:     2,
		MaxAttempts: 2,
		RetryBase:   time.Millisecond,
		RetryMax:    4 * time.Millisecond,
		MaxRounds:   3,
	}, auths, source)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if cap(c.popBuf) < len(source) {
		t.Fatalf("population buffer not retained: cap %d", cap(c.popBuf))
	}
	for _, r := range source {
		if !c.builder.Listed(r.Name) {
			t.Fatalf("%s missing from the builder's relay index", r.Name)
		}
	}
	if c.builder.Listed("departed") {
		t.Fatal("a relay outside the population is listed")
	}
	pop := c.population()
	sched, err := c.builder.Build([]byte("seed"), pop, []float64{core.TeamCapacityBps(auths[0].Team)}, p)
	if err != nil {
		t.Fatal(err)
	}
	if &pop[0] != &c.popBuf[0] {
		t.Fatal("population buffer reallocated on a stable population")
	}
	placed := 0
	for _, slot := range sched.PerBWAuth[0] {
		for _, a := range slot {
			if pop[a.Index].Name != a.Relay {
				t.Fatalf("assignment %s carries index %d (%s)", a.Relay, a.Index, pop[a.Index].Name)
			}
			placed++
		}
	}
	if placed != len(source) {
		t.Fatalf("placed %d of %d relays", placed, len(source))
	}
}
