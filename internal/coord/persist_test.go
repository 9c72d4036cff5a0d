package coord

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"flashflow/internal/core"
	"flashflow/internal/dirauth"
	"flashflow/internal/store"
)

// persistAuths builds the population and BWAuth pair for the persistence
// tests: relay "twofaced" shows bw0 a quarter of what it shows bw1 (§5
// selective lying, ratio 4 > the 1.5 SplitViewFactor), so every completed
// round deterministically adds one SplitViewRounds count to its window.
// When block is non-nil, every measurement waits on it (or cancellation),
// which lets a test freeze a round mid-flight.
func persistAuths(block chan struct{}) ([]*core.BWAuth, StaticRelays) {
	p := testParams()
	caps0 := map[string]float64{"r1": 10e6, "r2": 25e6, "twofaced": 10e6}
	caps1 := map[string]float64{"r1": 10e6, "r2": 25e6, "twofaced": 40e6}
	b0, b1 := newFakeBackend(caps0), newFakeBackend(caps1)
	b0.block, b1.block = block, block
	relays := StaticRelays{
		{Name: "r1", EstimateBps: 10e6},
		{Name: "r2", EstimateBps: 25e6},
		{Name: "twofaced", EstimateBps: 20e6},
	}
	return []*core.BWAuth{testAuth("bw0", b0, p), testAuth("bw1", b1, p)}, relays
}

func persistConfig(s store.Store, maxRounds int) Config {
	return Config{
		Params:    testParams(),
		Store:     s,
		MaxRounds: maxRounds,
	}
}

// anomalyView extracts the coordinator's windowed anomaly table (counts
// and lastSeen) for comparison across restarts.
func anomalyView(c *Coordinator) map[string]relayAnomaly {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]relayAnomaly, len(c.anomalies))
	for name, a := range c.anomalies {
		out[name] = *a
	}
	return out
}

func copyStateDir(t *testing.T, src, dst string) {
	t.Helper()
	for _, name := range []string{store.SnapshotFile, store.WALFile} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestartResumesState is the crash-recovery integration test: a
// coordinator runs two full rounds against a file store, a successor is
// killed mid-round three (both the graceful-cancellation path and a
// kill -9 simulated by copying the state dir while round three is frozen
// in flight), and each restart must come back with identical priors,
// identical §5 anomaly windows, and resume at round four.
func TestRestartResumesState(t *testing.T) {
	dir := t.TempDir()

	// Life 1: two clean rounds, checkpointing every round.
	s1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	auths, relays := persistAuths(nil)
	cfg := persistConfig(s1, 2)
	var published []int
	cfg.OnSnapshot = func(round int, f *dirauth.BandwidthFile) {
		published = append(published, round)
	}
	c1, err := New(cfg, auths, relays)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Run(context.Background()); err != nil {
		t.Fatalf("life 1: %v", err)
	}
	wantPriors := c1.Priors()
	wantAnoms := anomalyView(c1)
	if len(wantPriors) != 3 {
		t.Fatalf("life 1 priors = %v, want 3 relays", wantPriors)
	}
	if a := wantAnoms["twofaced"]; a.counts.SplitViewRounds != 2 || a.lastSeen != 2 {
		t.Fatalf("life 1 anomalies = %+v, want twofaced with 2 split-view rounds seen at round 2", wantAnoms)
	}
	// No Close: a real crash does not close files, and every mutation was
	// synced on its way in.

	// Life 2: recover, then die mid-round 3 while every slot is frozen.
	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{}) // never closed: only cancellation releases a slot
	auths2, relays2 := persistAuths(block)
	cfg2 := persistConfig(s2, 0)
	// The hook fires once during New (the recovered round-2 snapshot)
	// and again for the partial round 3, whose merged file is empty
	// because every slot was frozen — record both, assert on the first.
	type pub struct{ round, entries int }
	var recovered []pub
	cfg2.OnSnapshot = func(round int, f *dirauth.BandwidthFile) {
		recovered = append(recovered, pub{round, len(f.Entries)})
	}
	reports := make(chan RoundReport, 4)
	cfg2.OnRound = func(rep RoundReport) { reports <- rep }
	c2, err := New(cfg2, auths2, relays2)
	if err != nil {
		t.Fatalf("life 2 recovery: %v", err)
	}
	// Recovery must republish the last checkpointed snapshot (round 2,
	// all three relays) before any new round runs, and restore the maps
	// exactly.
	if !reflect.DeepEqual(recovered, []pub{{2, 3}}) {
		t.Fatalf("recovered snapshot publications = %v, want [{2 3}]", recovered)
	}
	if got := c2.Priors(); !reflect.DeepEqual(got, wantPriors) {
		t.Fatalf("recovered priors = %v, want %v", got, wantPriors)
	}
	if got := anomalyView(c2); !reflect.DeepEqual(got, wantAnoms) {
		t.Fatalf("recovered anomalies = %+v, want %+v", got, wantAnoms)
	}

	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- c2.Run(ctx) }()
	// Wait until round 3 is genuinely in flight (a slot reached a
	// backend), then capture the on-disk state: this copy is exactly what
	// a kill -9 at this instant would leave behind.
	killDir := t.TempDir()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if c2.Status().InFlight > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("round 3 never started a slot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	copyStateDir(t, dir, killDir)
	cancel()
	if err := <-runErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("life 2 run: %v", err)
	}
	rep := <-reports
	if rep.Round != 3 || !rep.Partial {
		t.Fatalf("life 2 report = round %d partial=%v, want partial round 3", rep.Round, rep.Partial)
	}

	// Life 3a: restart after the graceful cancellation (final checkpoint
	// flushed round 3). The frozen round measured nothing, so priors and
	// counts are unchanged; the retention sweep refreshed twofaced's
	// lastSeen to 3, and that refresh must have reached the store.
	check := func(t *testing.T, stateDir string, wantLastSeen, wantNextRound int) {
		s, err := store.Open(stateDir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		auths3, relays3 := persistAuths(nil)
		cfg3 := persistConfig(s, 1)
		reports := make(chan RoundReport, 2)
		cfg3.OnRound = func(rep RoundReport) { reports <- rep }
		c3, err := New(cfg3, auths3, relays3)
		if err != nil {
			t.Fatal(err)
		}
		if got := c3.Priors(); !reflect.DeepEqual(got, wantPriors) {
			t.Fatalf("priors = %v, want %v", got, wantPriors)
		}
		got := anomalyView(c3)
		want := map[string]relayAnomaly{"twofaced": {counts: wantAnoms["twofaced"].counts, lastSeen: wantLastSeen}}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("anomalies = %+v, want %+v", got, want)
		}
		if err := c3.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if rep := <-reports; rep.Round != wantNextRound {
			t.Fatalf("resumed at round %d, want %d", rep.Round, wantNextRound)
		}
		s.Close()
	}
	t.Run("graceful", func(t *testing.T) { check(t, dir, 3, 4) })

	// Life 3b: restart from the kill -9 image. The in-flight round's only
	// durable trace is its round marker, so the restart skips past it —
	// lastSeen still reads 2 (the sweep's refresh had not run when the
	// process died), and work resumes at round 4, never re-running 3.
	t.Run("kill9", func(t *testing.T) { check(t, killDir, 2, 4) })
}

// TestStoreErrorsDegrade proves a broken store cannot take the
// measurement plane down: rounds keep completing on in-memory state and
// the failures surface as coord_store_errors.
func TestStoreErrorsDegrade(t *testing.T) {
	ms := store.NewMem()
	ms.AppendErr = errors.New("disk on fire")
	auths, relays := persistAuths(nil)
	cfg := persistConfig(ms, 2)
	c, err := New(cfg, auths, relays)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if st.Counters["coord_store_errors"] == 0 {
		t.Fatal("append failures not counted")
	}
	if got := st.Counters["coord_rounds_completed"]; got != 2 {
		t.Fatalf("rounds completed = %d, want 2 despite store errors", got)
	}
	if len(c.Priors()) != 3 {
		t.Fatalf("in-memory priors lost: %v", c.Priors())
	}
	// Checkpoints still work (only Append fails), so the final state is
	// durable even though the WAL was not.
	if ms.Checkpoints() == 0 {
		t.Fatal("no checkpoint taken")
	}
}

// TestCheckpointMatchesLiveState proves the checkpointed store state is
// the coordinator's state: loading the store after a run yields the same
// round, priors, and anomaly windows the coordinator reports.
func TestCheckpointMatchesLiveState(t *testing.T) {
	ms := store.NewMem()
	auths, relays := persistAuths(nil)
	cfg := persistConfig(ms, 3)
	cfg.CheckpointEvery = 2 // rounds 1 and 3 land in the WAL, round 2 in a snapshot
	c, err := New(cfg, auths, relays)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// MaxRounds=3 with CheckpointEvery=2: finishRound checkpointed round
	// 2, and Run's exit flushed round 3 — the shutdown-flush bugfix.
	if got := ms.Checkpoints(); got != 2 {
		t.Fatalf("checkpoints = %d, want 2 (cadence + final flush)", got)
	}
	st, err := ms.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Round != 3 {
		t.Fatalf("stored round = %d, want 3", st.Round)
	}
	if !reflect.DeepEqual(st.Priors, c.Priors()) {
		t.Fatalf("stored priors = %v, live %v", st.Priors, c.Priors())
	}
	live := anomalyView(c)
	if len(st.Anomalies) != len(live) {
		t.Fatalf("stored anomalies = %+v, live %+v", st.Anomalies, live)
	}
	for name, rec := range st.Anomalies {
		if rec.Counts != live[name].counts || rec.LastSeen != live[name].lastSeen {
			t.Fatalf("stored %s = %+v, live %+v", name, rec, live[name])
		}
	}
}

// countingStore counts the Append batches and records that reach the
// wrapped store.
type countingStore struct {
	*store.MemStore
	appends, records int
}

func (s *countingStore) Append(recs ...store.Record) error {
	s.appends++
	s.records += len(recs)
	return s.MemStore.Append(recs...)
}

// TestSplitViewEvidenceBatched: a round whose every relay shows its three
// BWAuths divergent capacities logs that evidence in the round's one WAL
// batch, not one append per relay, and a coordinator recovered from the
// store holds the same anomaly table.
func TestSplitViewEvidenceBatched(t *testing.T) {
	const relays = 50
	p := testParams()
	var auths []*core.BWAuth
	var population StaticRelays
	for b, factor := range []float64{1, 2, 4} {
		caps := make(map[string]float64, relays)
		for i := 0; i < relays; i++ {
			name := fmt.Sprintf("r%02d", i)
			caps[name] = factor * 10e6
			if b == 0 {
				population = append(population, core.RelayEstimate{Name: name, EstimateBps: 20e6})
			}
		}
		auths = append(auths, testAuth(fmt.Sprintf("bw%d", b), newFakeBackend(caps), p))
	}
	cs := &countingStore{MemStore: store.NewMem()}
	cfg := persistConfig(cs, 1)
	cfg.CheckpointEvery = 2
	// Before Run's closing checkpoint, the round's records are still in
	// the WAL: keep the state replaying them yields.
	var replayed *store.State
	cfg.OnRound = func(RoundReport) {
		var err error
		if replayed, err = cs.Load(); err != nil {
			t.Error(err)
		}
	}
	c, err := New(cfg, auths, population)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := anomalyView(c)
	if len(want) != relays {
		t.Fatalf("%d relays flagged, want all %d", len(want), relays)
	}
	// The KindRound marker, then one batch: 50 anomaly and 50 prior
	// records.
	if cs.appends != 2 || cs.records != 2*relays+1 {
		t.Errorf("round made %d store appends of %d records, want 2 of %d", cs.appends, cs.records, 2*relays+1)
	}

	ms := store.NewMem()
	ms.Seed(replayed)
	recovered, err := New(persistConfig(ms, 1), auths, population)
	if err != nil {
		t.Fatal(err)
	}
	if got := anomalyView(recovered); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered anomaly table differs:\n got %+v\nwant %+v", got, want)
	}
}
