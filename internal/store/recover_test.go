package store

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"flashflow/internal/core"
	"flashflow/internal/dirauth"
)

// crashState populates dir the way a long-running coordinator leaves it
// after a crash: a checkpoint at round 42 holding a prior for each of n
// relays, anomaly windows for 1% of them and the last published v3bw
// body, then a WAL tail of walTail prior updates (with anomaly evidence
// every thousandth) under the round-43 marker. It returns the v3bw body
// (a store-less restart's only input), the checkpointed state, and each
// WAL-updated relay's last prior.
func crashState(tb testing.TB, dir string, n, walTail int) (body []byte, ckpt *State, walPriors map[string]float64) {
	tb.Helper()
	ckpt = NewState()
	ckpt.Round = 42
	entries := make([]dirauth.BandwidthEntry, n)
	for i := range entries {
		name := fmt.Sprintf("relay-%07d", i)
		capBps := 1e6 * (1 + float64(i%4096)) * (1 + float64(i)*1e-8)
		ckpt.Priors[name] = capBps
		entries[i] = dirauth.BandwidthEntry{Name: name, WeightBps: capBps, CapacityBps: capBps}
		if i%100 == 0 {
			ckpt.Anomalies[name] = AnomalyRecord{
				Counts:   core.AnomalyCounts{ClampedSeconds: int64(i%30 + 1), SplitViewRounds: int64(i % 3)},
				LastSeen: 40 + i%3,
			}
		}
	}
	body, _, err := dirauth.NewBandwidthFile("store-test", time.Hour, entries).Render()
	if err != nil {
		tb.Fatal(err)
	}
	ckpt.V3BW = V3BW{Round: 42, Body: body}

	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Load(); err != nil {
		tb.Fatal(err)
	}
	if err := s.Checkpoint(ckpt); err != nil {
		tb.Fatal(err)
	}
	walPriors = make(map[string]float64)
	recs := []Record{{Kind: KindRound, Round: 43}}
	for i := 0; i < walTail; i++ {
		name := fmt.Sprintf("relay-%07d", i*7%n)
		bps := 2e6 * (1 + float64(i%1024))
		recs = append(recs, Record{Kind: KindPrior, Relay: name, Bps: bps})
		walPriors[name] = bps
		if i%1000 == 999 {
			recs = append(recs, Record{
				Kind:   KindAnomaly,
				Relay:  fmt.Sprintf("relay-%07d", i%n),
				Round:  43,
				Counts: core.AnomalyCounts{StallSuspectSlots: 1},
			})
		}
	}
	if err := s.Append(recs...); err != nil {
		tb.Fatal(err)
	}
	return body, ckpt, walPriors
}

// warmRestart is a durable-state restart: open the state directory and
// load the snapshot plus WAL tail.
func warmRestart(tb testing.TB, dir string) *State {
	tb.Helper()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	st, err := s.Load()
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// coldRestart is the best a store-less restart can do: re-parse the last
// published v3bw file to seed priors. It recovers no anomaly windows and
// no round counter.
func coldRestart(tb testing.TB, body []byte) map[string]float64 {
	tb.Helper()
	f, err := dirauth.ParseV3BW(bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	seeded := make(map[string]float64, len(f.Entries))
	for _, e := range f.Entries {
		seeded[e.Name] = e.CapacityBps
	}
	return seeded
}

// TestCrashRecoveryRestoresState pins what a warm restart gets back that
// a cold one cannot: it resumes at the crashed round, restores every
// prior (WAL updates applied over the checkpoint) and every anomaly
// window, and still carries the published v3bw body, from which a cold
// restart seeds every prior.
func TestCrashRecoveryRestoresState(t *testing.T) {
	const n = 5000
	dir := t.TempDir()
	body, ckpt, walPriors := crashState(t, dir, n, 2000)

	st := warmRestart(t, dir)
	if st.Round != 43 {
		t.Fatalf("warm recovery resumed at round %d, want 43", st.Round)
	}
	if len(st.Priors) != n {
		t.Fatalf("warm recovery restored %d priors, want %d", len(st.Priors), n)
	}
	for name, bps := range ckpt.Priors {
		want, ok := walPriors[name]
		if !ok {
			want = bps
		}
		if st.Priors[name] != want {
			t.Fatalf("prior %s = %v, want %v", name, st.Priors[name], want)
		}
	}
	for name := range ckpt.Anomalies {
		if _, ok := st.Anomalies[name]; !ok {
			t.Fatalf("anomaly window of %s lost", name)
		}
	}
	if len(st.Anomalies) <= len(ckpt.Anomalies) {
		t.Fatalf("WAL anomaly evidence not replayed: %d windows, checkpoint had %d", len(st.Anomalies), len(ckpt.Anomalies))
	}
	if st.V3BW.Round != 42 || !bytes.Equal(st.V3BW.Body, body) {
		t.Fatalf("recovered v3bw round %d (%d bytes), want round 42 (%d bytes)", st.V3BW.Round, len(st.V3BW.Body), len(body))
	}
	if seeded := coldRestart(t, st.V3BW.Body); len(seeded) != n {
		t.Fatalf("cold restart seeded %d priors, want %d", len(seeded), n)
	}
}

// BenchmarkRecoverWarm1M races warm recovery of a million-relay
// coordinator (snapshot decode plus a 100k-record WAL tail, what coordd
// -state-dir does on startup) against a cold re-parse of the same
// population's v3bw file. The two alternate restart by restart, so both
// see the same heap and page-cache state, and each side's fastest restart
// is compared so a GC pause landing in one cannot decide the race. It
// reports warm recovery's restored entries/s and x_cold (cold time / warm
// time), and fails unless warm wins even against that lossy alternative.
func BenchmarkRecoverWarm1M(b *testing.B) {
	const n = 1000000
	dir := b.TempDir()
	body, _, _ := crashState(b, dir, n, 100000)
	// Warm both paths once (page cache, map arenas).
	warmRestart(b, dir)
	coldRestart(b, body)

	var warmTotal time.Duration
	var restored int
	warmBest, coldBest := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		st := warmRestart(b, dir)
		d := time.Since(t0)
		warmTotal += d
		warmBest = min(warmBest, d)
		restored += len(st.Priors) + len(st.Anomalies)

		b.StopTimer()
		t1 := time.Now()
		if seeded := coldRestart(b, body); len(seeded) != n {
			b.Fatalf("cold restart seeded %d priors, want %d", len(seeded), n)
		}
		coldBest = min(coldBest, time.Since(t1))
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(restored)/warmTotal.Seconds(), "entries/s")
	b.ReportMetric(coldBest.Seconds()/warmBest.Seconds(), "x_cold")
	if warmBest >= coldBest {
		b.Fatalf("warm recovery (best %v/restart) is not faster than a cold v3bw re-parse (best %v/restart) over %d relays", warmBest, coldBest, n)
	}
}
