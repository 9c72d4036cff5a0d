package coord

import (
	"bytes"
	"context"
	"os"
	"sync"
	"testing"
	"time"

	"flashflow/internal/core"
	"flashflow/internal/metrics"
)

// TestCountersAfterRounds runs three rounds on four workers while other
// goroutines scrape Status and the Prometheus encoding (for -race: the
// workers count into shared atomic cells). Afterwards coord_in_flight
// must read 0 and the exposition must equal the golden file, which holds
// the bytes the mutex-and-map registry produced for the same rounds.
func TestCountersAfterRounds(t *testing.T) {
	caps := map[string]float64{"r1": 10e6, "r2": 25e6, "r3": 40e6, "r4": 60e6, "r5": 15e6, "r6": 33e6}
	p := testParams()
	auths := []*core.BWAuth{testAuth("bw0", newFakeBackend(caps), p), testAuth("bw1", newFakeBackend(caps), p)}
	var source StaticRelays
	for name, c := range caps {
		source = append(source, core.RelayEstimate{Name: name, EstimateBps: c})
	}
	ctr := metrics.NewCounters()
	c, err := New(Config{
		Params:      p,
		Workers:     4,
		MaxAttempts: 3,
		RetryBase:   time.Millisecond,
		RetryMax:    4 * time.Millisecond,
		MaxRounds:   3,
		Counters:    ctr,
	}, auths, source)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			var enc metrics.PrometheusEncoder
			var b bytes.Buffer
			for {
				select {
				case <-done:
					return
				default:
				}
				if st := c.Status(); st.InFlight < 0 || st.InFlight > 4 {
					t.Errorf("in flight %d outside [0, workers]", st.InFlight)
				}
				b.Reset()
				if _, err := enc.Encode(&b, ctr, nil); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	err = c.Run(context.Background())
	close(done)
	scrapers.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if got := ctr.Get("coord_in_flight"); got != 0 {
		t.Fatalf("coord_in_flight = %d after the rounds, want 0", got)
	}
	if got := c.Status().InFlight; got != 0 {
		t.Fatalf("Status().InFlight = %d after the rounds, want 0", got)
	}
	var enc metrics.PrometheusEncoder
	var b bytes.Buffer
	if _, err := enc.Encode(&b, ctr, nil); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/metrics_3_rounds.prom")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("Prometheus exposition changed:\n%s\nwant:\n%s", b.Bytes(), want)
	}
}
