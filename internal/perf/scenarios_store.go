package perf

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"flashflow/internal/core"
	"flashflow/internal/dirauth"
	"flashflow/internal/store"
)

// Durable-state scenario: how fast a crashed coordinator gets its
// million-relay control plane back. The warm path is internal/store's
// recovery (binary snapshot decode plus WAL-tail replay — what coordd
// -state-dir does on startup); the cold path is the best a store-less
// restart could manage, re-parsing the last published v3bw text file to
// seed priors — which still recovers no §5 anomaly windows and no round
// counter, so it restarts the anomaly retention clock and re-runs round
// numbers. The scenario fails outright if warm recovery is not faster
// than even that lossy alternative.

// recoverRelays is the recovered population size; recoverWALTail is the
// size of the un-checkpointed WAL tail replayed on top of the snapshot
// (roughly one full round of prior updates at 10% churn plus anomaly
// evidence).
const (
	recoverRelays  = 1000000
	recoverWALTail = 100000
)

// buildRecoveryState populates a state directory the way a long-running
// coordinator would leave it after a crash: a checkpointed snapshot of a
// million priors, anomaly windows for 1% of relays, the last published
// v3bw body, and a WAL tail of post-checkpoint mutations. It returns the
// rendered v3bw body (the cold path's input) and the expected totals.
func buildRecoveryState(dir string) (v3bwBody []byte, priors, anomalies int, err error) {
	st := store.NewState()
	st.Round = 42
	entries := make([]dirauth.BandwidthEntry, recoverRelays)
	for i := range entries {
		name := fmt.Sprintf("relay-%07d", i)
		capBps := 1e6 * (1 + float64(i%4096)) * (1 + float64(i)*1e-8)
		st.Priors[name] = capBps
		entries[i] = dirauth.BandwidthEntry{Name: name, WeightBps: capBps, CapacityBps: capBps}
		if i%100 == 0 {
			st.Anomalies[name] = store.AnomalyRecord{
				Counts:   core.AnomalyCounts{ClampedSeconds: int64(i%30 + 1), SplitViewRounds: int64(i % 3)},
				LastSeen: 40 + i%3,
			}
		}
	}
	body, _, err := dirauth.NewBandwidthFile("perf", time.Hour, entries).Render()
	if err != nil {
		return nil, 0, 0, err
	}
	st.V3BW = store.V3BW{Round: 42, Body: body}

	s, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		return nil, 0, 0, err
	}
	defer s.Close()
	if _, err := s.Load(); err != nil {
		return nil, 0, 0, err
	}
	if err := s.Checkpoint(st); err != nil {
		return nil, 0, 0, err
	}
	// The WAL tail: the crashed round's marker, then its prior updates in
	// the coordinator's per-round batch sizes.
	recs := []store.Record{{Kind: store.KindRound, Round: 43}}
	for i := 0; i < recoverWALTail; i++ {
		recs = append(recs, store.Record{
			Kind:  store.KindPrior,
			Relay: fmt.Sprintf("relay-%07d", i*7%recoverRelays),
			Bps:   2e6 * (1 + float64(i%1024)),
		})
		if i%1000 == 999 {
			recs = append(recs, store.Record{
				Kind:   store.KindAnomaly,
				Relay:  fmt.Sprintf("relay-%07d", i%recoverRelays),
				Round:  43,
				Counts: core.AnomalyCounts{StallSuspectSlots: 1},
			})
		}
	}
	if err := s.Append(recs...); err != nil {
		return nil, 0, 0, err
	}
	return body, len(st.Priors), len(st.Anomalies), nil
}

// runRecoverWarm measures warm recovery restarts (Open + Load + Close on
// a real state directory) against the cold v3bw re-parse over the same
// window, and fails unless warm beats cold. The Result's unit is one
// restored entry (prior or anomaly record) per second of warm recovery,
// so the CI regression gate tracks recovery throughput like any other
// scenario.
func runRecoverWarm(opts Options) (Result, error) {
	dir, err := os.MkdirTemp("", "flashflow-recover-*")
	if err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(dir)
	body, priors, anomalies, err := buildRecoveryState(dir)
	if err != nil {
		return Result{}, err
	}
	// Bytes a warm restart reads: the live snapshot plus the WAL tail.
	var stateBytes int64
	for _, name := range []string{store.SnapshotFile, store.WALFile} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return Result{}, err
		}
		stateBytes += fi.Size()
	}

	warmRestart := func() (int, error) {
		s, err := store.Open(dir, store.Options{NoSync: true})
		if err != nil {
			return 0, err
		}
		defer s.Close()
		st, err := s.Load()
		if err != nil {
			return 0, err
		}
		if st.Round != 43 {
			return 0, fmt.Errorf("perf: warm recovery resumed at round %d, want 43", st.Round)
		}
		if len(st.Priors) != priors || len(st.Anomalies) < anomalies {
			return 0, fmt.Errorf("perf: warm recovery restored %d priors / %d anomalies, want %d / >=%d",
				len(st.Priors), len(st.Anomalies), priors, anomalies)
		}
		return len(st.Priors) + len(st.Anomalies), nil
	}
	coldRestart := func() (int, error) {
		f, err := dirauth.ParseV3BW(bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		seeded := make(map[string]float64, len(f.Entries))
		for _, e := range f.Entries {
			seeded[e.Name] = e.CapacityBps
		}
		if len(seeded) != priors {
			return 0, fmt.Errorf("perf: cold restart seeded %d priors, want %d", len(seeded), priors)
		}
		return len(seeded), nil
	}

	// Warmup both paths once (page cache, map arenas), then measure each
	// over its own window.
	if _, err := warmRestart(); err != nil {
		return Result{}, err
	}
	if _, err := coldRestart(); err != nil {
		return Result{}, err
	}

	// Interleave warm and cold restarts and compare each path's best
	// time: back-to-back alternation sees the same heap and page-cache
	// state, and best-of is robust against a GC pause landing in one
	// path's window. Throughput (the gate's metric) comes from the warm
	// runs' totals.
	window := opts.window()
	var (
		warmItems   int64
		warmElapsed time.Duration
		warmSec     = math.Inf(1)
		coldSec     = math.Inf(1)
	)
	before := readMem()
	start := time.Now()
	for round := 0; round < 2 || time.Since(start) < window; round++ {
		ws := time.Now()
		n, err := warmRestart()
		if err != nil {
			return Result{}, err
		}
		wd := time.Since(ws)
		warmItems += int64(n)
		warmElapsed += wd
		warmSec = math.Min(warmSec, wd.Seconds())

		cs := time.Now()
		if _, err := coldRestart(); err != nil {
			return Result{}, err
		}
		coldSec = math.Min(coldSec, time.Since(cs).Seconds())
	}
	after := readMem()

	if warmSec >= coldSec {
		return Result{}, fmt.Errorf("perf: warm recovery (best %.3fs/restart) is not faster than a cold v3bw re-parse (best %.3fs/restart) over %d relays",
			warmSec, coldSec, recoverRelays)
	}

	res := controlResult(warmItems, warmElapsed, before, after)
	if sec := warmElapsed.Seconds(); sec > 0 {
		restarts := float64(warmItems) / float64(priors+anomalies)
		res.MBPerSec = float64(stateBytes) * restarts / 1e6 / sec
	}
	res.Extra = map[string]float64{
		"state_bytes":          float64(stateBytes),
		"relays":               float64(recoverRelays),
		"wal_tail_records":     float64(recoverWALTail),
		"restored_priors":      float64(priors),
		"restored_anomalies":   float64(anomalies),
		"warm_restart_seconds": warmSec,
		"cold_restart_seconds": coldSec,
		"speedup_vs_cold":      coldSec / warmSec,
	}
	return res, nil
}
