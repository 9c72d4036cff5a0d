package main

// Layer decorators. The benchmark measures each layer from outside, by
// timing calls into it: a core.Backend decorator around the data plane, a
// store.Store decorator around the FileStore, and the member dialers the
// benchmark owns. Nothing here reaches inside the program, and the
// data-plane net.Conn is never wrapped (wire unwraps NetConner for its
// writev path, so a counting wrapper would measure a different program).

import (
	"context"
	"errors"
	"net"
	"sort"
	"sync"
	"time"

	"flashflow/internal/core"
	"flashflow/internal/store"
)

// span is one timed call, in nanoseconds since the run's epoch.
type span struct{ start, end int64 }

// epoch anchors every span so spans from different layers compare.
var epoch = time.Now()

func since(t time.Time) int64 { return int64(t.Sub(epoch)) }

// covered returns the total length of the union of the spans that falls
// inside [lo, hi): the part of a parent span its timed children cover.
func covered(spans []span, lo, hi int64) int64 {
	clipped := make([]span, 0, len(spans))
	for _, s := range spans {
		s.start, s.end = max(s.start, lo), min(s.end, hi)
		if s.end > s.start {
			clipped = append(clipped, s)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	for i, s := range clipped {
		if i == 0 || s.start > curE {
			total += curE - curS
			curS, curE = s.start, s.end
		} else if s.end > curE {
			curE = s.end
		}
	}
	return total + curE - curS
}

// attemptLog accumulates every measurement attempt the backend decorator
// saw. Counters are reset per phase; spans are kept only when tracing.
type attemptLog struct {
	realtime bool // the backend streams one wall-clock second per sample
	tracing  bool

	mu sync.Mutex
	d  attemptData
}

type attemptData struct {
	attempts   int
	aborted    int
	failed     int // errors other than the early abort, and echo failures
	echoFailed int
	failures   []string
	slotSecs   int
	bytes      float64
	sent, lost int64
	busy       time.Duration // summed backend call time
	overheadMs []float64
	headMs     []float64
	tailMs     []float64
	spans      []span
}

func (l *attemptLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.d = attemptData{}
}

// timedBackend decorates a core.Backend: it times each attempt, tees the
// sample sink to see when the first and last seconds arrived, and counts
// the echoed bytes in the returned authoritative record.
type timedBackend struct {
	inner core.Backend
	log   *attemptLog
}

func (b *timedBackend) RunMeasurement(ctx context.Context, target string, alloc core.Allocation, seconds int, sink core.SampleSink) (core.MeasurementData, error) {
	var first, last time.Time
	tee := func(s core.Sample) {
		now := time.Now()
		if first.IsZero() {
			first = now
		}
		last = now
		if sink != nil {
			sink(s)
		}
	}
	start := time.Now()
	data, err := b.inner.RunMeasurement(ctx, target, alloc, seconds, tee)
	end := time.Now()

	streamed := 0
	var bytes float64
	for _, series := range data.MeasBytes {
		streamed = max(streamed, len(series))
		for _, v := range series {
			bytes += v
		}
	}
	wall := end.Sub(start)
	overhead := wall
	if b.log.realtime {
		overhead -= time.Duration(streamed) * time.Second
	}

	b.log.mu.Lock()
	defer b.log.mu.Unlock()
	l := &b.log.d
	l.attempts++
	l.slotSecs += streamed
	l.bytes += bytes
	l.sent += data.SentCells
	l.lost += data.LostCells
	l.busy += wall
	l.overheadMs = append(l.overheadMs, ms(overhead))
	if b.log.realtime && !first.IsZero() {
		l.headMs = append(l.headMs, ms(first.Sub(start)-time.Second))
		l.tailMs = append(l.tailMs, ms(end.Sub(last)))
	}
	if b.log.tracing {
		l.spans = append(l.spans, span{since(start), since(end)})
	}
	switch {
	case data.Failed:
		l.failed++
		l.echoFailed++
		l.failures = append(l.failures, target+": echo verification failed")
	case errors.Is(err, context.Canceled):
		// The §4.2 early abort cancels the attempt's context; core records
		// it as MeasureAttempt.Aborted. Nothing else cancels a slot here.
		l.aborted++
	case err != nil:
		l.failed++
		l.failures = append(l.failures, target+": "+err.Error())
	}
	return data, err
}

// storeLog accumulates the durable store's timed calls.
type storeLog struct {
	tracing bool

	mu sync.Mutex
	d  storeData
}

type storeData struct {
	appendMs    []float64
	appends     int
	checkpointS []float64
	loadS       []float64
	spans       []span
	snapshotMB  float64
}

func (l *storeLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.d = storeData{}
}

// record appends one call's duration to the series dst selects.
func (l *storeLog) record(start, end time.Time, dst func(*storeData) *[]float64, scale func(time.Duration) float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := dst(&l.d)
	*p = append(*p, scale(end.Sub(start)))
	if l.tracing {
		l.d.spans = append(l.d.spans, span{since(start), since(end)})
	}
}

// timedStore decorates a store.Store around the FileStore.
type timedStore struct {
	inner *store.FileStore
	log   *storeLog
}

func (s *timedStore) Load() (*store.State, error) {
	start := time.Now()
	st, err := s.inner.Load()
	s.log.record(start, time.Now(), func(d *storeData) *[]float64 { return &d.loadS }, secs)
	return st, err
}

func (s *timedStore) Append(recs ...store.Record) error {
	start := time.Now()
	err := s.inner.Append(recs...)
	s.log.record(start, time.Now(), func(d *storeData) *[]float64 { return &d.appendMs }, ms)
	s.log.mu.Lock()
	s.log.d.appends++
	s.log.mu.Unlock()
	return err
}

func (s *timedStore) Checkpoint(st *store.State) error {
	start := time.Now()
	err := s.inner.Checkpoint(st)
	s.log.record(start, time.Now(), func(d *storeData) *[]float64 { return &d.checkpointS }, secs)
	if size, serr := fileSize(s.inner.Dir(), store.SnapshotFile); serr == nil {
		s.log.mu.Lock()
		s.log.d.snapshotMB = float64(size) / (1 << 20)
		s.log.mu.Unlock()
	}
	return err
}

func (s *timedStore) Close() error { return s.inner.Close() }

// openStore opens a durable FileStore (fsync on).
func openStore(dir string, log *storeLog) (*timedStore, error) {
	fs, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	return &timedStore{inner: fs, log: log}, nil
}

// dialLog counts and times the member dialers' real dials. The pool
// calls them only on a miss, so they see exactly the cold connections.
type dialLog struct {
	mu sync.Mutex
	d  dialData
}

type dialData struct {
	dials    int
	udpDials int
	dialMs   []float64
}

func (l *dialLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.d = dialData{}
}

func (l *dialLog) dial(network, addr string) (net.Conn, error) {
	start := time.Now()
	c, err := net.Dial(network, addr)
	d := time.Since(start)
	l.mu.Lock()
	defer l.mu.Unlock()
	if network == "udp" {
		l.d.udpDials++
	} else {
		l.d.dials++
		l.d.dialMs = append(l.d.dialMs, ms(d))
	}
	return c, err
}

func ms(d time.Duration) float64   { return float64(d) / 1e6 }
func secs(d time.Duration) float64 { return d.Seconds() }
