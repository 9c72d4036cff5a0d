package coord

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"flashflow/internal/core"
)

// secondCounter wraps a backend and counts the simulated seconds it
// streams, which is what a slot occupies the measurement team for.
type secondCounter struct {
	inner   core.Backend
	seconds atomic.Int64
}

func (s *secondCounter) RunMeasurement(ctx context.Context, target string, alloc core.Allocation, seconds int, sink core.SampleSink) (core.MeasurementData, error) {
	return s.inner.RunMeasurement(ctx, target, alloc, seconds, func(smp core.Sample) {
		s.seconds.Add(1)
		if sink != nil {
			sink(smp)
		}
	})
}

// TestEarlyAbortSavesSlotSeconds runs the same round twice on an instant
// backend: once as-is and once with Params.DisableEarlyAbort, the
// fixed-length baseline. Every prior is capacity/16, so each relay's §4.2
// doubling loop needs several attempts before its allocation carries the
// excess factor. With early abort the undersized attempts stop as soon as
// a majority of their seconds prove the estimate unacceptable, so the
// round must stream fewer slot-seconds than the fixed-length one.
func TestEarlyAbortSavesSlotSeconds(t *testing.T) {
	run := func(disableAbort bool) (seconds, conclusive int64) {
		caps := make(map[string]float64, 50)
		var source StaticRelays
		for i := 0; i < 50; i++ {
			name := fmt.Sprintf("relay-%03d", i)
			capBps := 5e6 + float64(i%40)*2.5e6 // 5–102.5 Mbit/s spread
			caps[name] = capBps
			source = append(source, core.RelayEstimate{Name: name, EstimateBps: capBps / 16})
		}
		backend := &secondCounter{inner: newFakeBackend(caps)}
		p := core.DefaultParams()
		p.SlotSeconds = 10
		p.DisableEarlyAbort = disableAbort
		c, err := New(Config{
			Params:      p,
			Workers:     8,
			MaxAttempts: 2,
			MaxRounds:   1,
			RetryBase:   time.Millisecond,
			RetryMax:    4 * time.Millisecond,
		}, []*core.BWAuth{testAuth("bw0", backend, p)}, source)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return backend.seconds.Load(), c.cfg.Counters.Get("coord_slots_conclusive")
	}
	abortSecs, abortOK := run(false)
	fixedSecs, fixedOK := run(true)
	t.Logf("slot-seconds: %d with early abort, %d fixed-length", abortSecs, fixedSecs)
	if abortSecs == 0 || fixedSecs == 0 {
		t.Fatal("a round streamed no slot-seconds")
	}
	if abortOK != fixedOK {
		t.Fatalf("conclusive slots differ: %d with early abort, %d fixed-length", abortOK, fixedOK)
	}
	if abortSecs >= fixedSecs {
		t.Fatalf("early abort saved no slot-seconds: %d with abort vs %d fixed", abortSecs, fixedSecs)
	}
}
