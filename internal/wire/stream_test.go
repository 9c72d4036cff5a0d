package wire

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"flashflow/internal/cell"
)

// startPipeTargetTCP serves one target over a net.Pipe and returns the
// measurer's end.
func startPipeTargetTCP(t *testing.T, cfg TargetConfig, id Identity) net.Conn {
	t.Helper()
	tgt := NewTarget(cfg)
	tgt.Authorize(id.Pub)
	client, server := net.Pipe()
	go func() { _ = tgt.HandleConn(server) }()
	t.Cleanup(func() {
		client.Close()
		tgt.Close()
	})
	return client
}

// TestOnSecondCoversEverySecond: the live per-second stream delivers
// exactly one callback per second of the returned series, in order, both
// when the slot runs to its end and when it is cancelled early. Both
// cases end the slot just before the streamer's next flush boundary (the
// second's end plus streamFlushSlack) — the race a fast end-of-slot
// exchange on a real socket loses, which used to drop the last second
// from the stream.
func TestOnSecondCoversEverySecond(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time slots")
	}
	for _, tc := range []struct {
		name     string
		duration time.Duration
		cancel   time.Duration // 0: run the whole slot
		want     int
	}{
		// A 2.5 s slot reports 3 seconds; it ends well before 3 s.
		{"full", 2500 * time.Millisecond, 0, 3},
		// Cancelled 10 ms past the first second: one completed second.
		{"cancelled", 4 * time.Second, 1010 * time.Millisecond, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			id, err := NewIdentity()
			if err != nil {
				t.Fatal(err)
			}
			dial := pipeDialer(startPipeTargetTCP(t, TargetConfig{RateBps: 20e6}, id))
			ctx := t.Context()
			if tc.cancel > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, tc.cancel)
				defer cancel()
			}
			var seconds []int
			res, err := Measure(ctx, dial, MeasureOptions{
				Identity: id,
				Sockets:  2,
				Duration: tc.duration,
				Seed:     3,
				OnSecond: func(j int, _ float64) { seconds = append(seconds, j) },
			})
			if tc.cancel == 0 && err != nil {
				t.Fatalf("Measure: %v", err)
			}
			if len(res.PerSecondBytes) != tc.want {
				t.Fatalf("returned %d seconds, want %d (err %v)", len(res.PerSecondBytes), tc.want, err)
			}
			if len(seconds) != len(res.PerSecondBytes) {
				t.Fatalf("OnSecond saw seconds %v, the result has %d", seconds, len(res.PerSecondBytes))
			}
			for j, s := range seconds {
				if s != j {
					t.Fatalf("OnSecond order %v", seconds)
				}
			}
		})
	}
}

// writeTimes wraps the measurer's end of a pipe and records when each
// write started.
type writeTimes struct {
	net.Conn
	mu    sync.Mutex
	times []time.Time
}

func (w *writeTimes) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.times = append(w.times, time.Now())
	w.mu.Unlock()
	return w.Conn.Write(p)
}

// TestSliverAllocationEndsOnTime measures at ~50 kbit/s, where one full
// 32-cell batch would pace for 2.6 s: the writer must instead send a cell
// at a time, never going quiet for longer than one cell time (82 ms
// here) plus scheduling slack, and the slot must end on time.
func TestSliverAllocationEndsOnTime(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time slot")
	}
	const rate = 50e3
	id, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	rec := &writeTimes{Conn: startPipeTargetTCP(t, TargetConfig{}, id)}

	const slot = 2 * time.Second
	start := time.Now()
	res, err := Measure(t.Context(), pipeDialer(rec), MeasureOptions{
		Identity: id,
		Sockets:  2,
		Duration: slot,
		RateBps:  rate,
		Seed:     5,
	})
	took := time.Since(start)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if took > slot+500*time.Millisecond {
		t.Fatalf("a %v slot at %.0f bit/s took %v", slot, rate, took)
	}
	if sumBytes(res.PerSecondBytes) == 0 {
		t.Fatal("nothing echoed")
	}
	cellTime := time.Duration(cell.Size * 8 / rate * float64(time.Second))
	bound := max(pacerMaxSleep, cellTime) + 100*time.Millisecond
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i := 1; i < len(rec.times); i++ {
		if gap := rec.times[i].Sub(rec.times[i-1]); gap > bound {
			t.Fatalf("writer quiet for %v between writes %d and %d (bound %v)", gap, i-1, i, bound)
		}
	}
}
