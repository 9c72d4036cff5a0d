package main

// coordStack is one coordinator with its durable store and snapshot
// holder: the part every workload shares. Each measured cycle — a round,
// its publication and the warm restart — goes through it, so the three
// workloads time the same calls. A cycle starts after a forced garbage
// collection, outside its timing, so it pays for its own allocations and
// not for garbage its predecessor left: on control-100k a round
// allocates over a GiB, and a timing that depends on where the last
// cycle's collection fell does not repeat. The collection is inside the
// phase's CPU window, which the CPU profile covers too.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"flashflow/internal/coord"
	"flashflow/internal/core"
	"flashflow/internal/dirauth"
	"flashflow/internal/obs"
)

type coordStack struct {
	e      *env
	cfg    coord.Config // without Store and OnSnapshot
	auths  []*core.BWAuth
	source coord.RelaySource
	dir    string
	store  *timedStore
	holder *obs.SnapshotHolder
	c      *coord.Coordinator
	rep    coord.RoundReport
	// snapErr is set by the OnSnapshot hook, which runs on the goroutine
	// calling Run or coord.New.
	snapErr error
}

func newCoordStack(e *env, dir string, cfg coord.Config, auths []*core.BWAuth, source coord.RelaySource) (*coordStack, error) {
	s := &coordStack{e: e, cfg: cfg, auths: auths, source: source, dir: dir}
	s.cfg.MaxRounds = 1
	s.cfg.CheckpointEvery = 1
	s.cfg.OnRound = func(r coord.RoundReport) { s.rep = r }
	if err := s.open(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// open opens the store and builds the coordinator over it; with state
// on disk this is the warm restart.
func (s *coordStack) open() error {
	st, err := openStore(s.dir, s.e.stores)
	if err != nil {
		return err
	}
	s.store = st
	holder := &obs.SnapshotHolder{}
	cfg := s.cfg
	cfg.Store = st
	cfg.OnSnapshot = func(round int, f *dirauth.BandwidthFile) {
		if err := s.e.pubs.timedPublish(holder, round, f); err != nil {
			s.snapErr = err
		}
	}
	c, err := coord.New(cfg, s.auths, s.source)
	if err != nil {
		return err
	}
	s.c, s.holder = c, holder
	return s.snapErr
}

// cycle runs one measured cycle: a round, its publication and the warm
// restart.
func (s *coordStack) cycle(ctx context.Context, pub *publisher, caps map[string]float64) error {
	runtime.GC()
	start := time.Now()
	if err := s.round(ctx, caps); err != nil {
		return err
	}
	if err := s.publish(ctx, pub, len(caps)); err != nil {
		return err
	}
	if err := s.recover(); err != nil {
		return err
	}
	s.e.ph.cycleS = append(s.e.ph.cycleS, time.Since(start).Seconds())
	return nil
}

// round runs one coordinator round and checks it: every relay of the
// population conclusively measured by every BWAuth, and every estimate
// inside the §4.2 acceptance band around its true capacity.
func (s *coordStack) round(ctx context.Context, caps map[string]float64) error {
	e, ph := s.e, s.e.ph
	e.resetSpans()
	busy0, appends0 := e.attempts.busySum(), e.stores.appendCount()
	t0 := time.Now()
	err := s.c.Run(ctx)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("round: %w", err)
	}
	if s.snapErr != nil {
		return fmt.Errorf("round %d: snapshot publish: %w", s.rep.Round, s.snapErr)
	}
	rep := s.rep
	want := len(caps) * len(s.auths)
	if rep.Partial || len(rep.Unmeasured) > 0 || len(rep.Unscheduled) > 0 || rep.Inconclusive > 0 ||
		rep.Conclusive != want || rep.Scheduled != want || len(rep.Estimates) != len(caps) {
		return fmt.Errorf("round %d: %d/%d slots conclusive, %d inconclusive, %d unmeasured %v, %d unscheduled, %d estimates for %d relays",
			rep.Round, rep.Conclusive, want, rep.Inconclusive, len(rep.Unmeasured), firstUnmeasured(rep), len(rep.Unscheduled), len(rep.Estimates), len(caps))
	}
	p := s.cfg.Params
	for name, capBps := range caps {
		r := rep.Estimates[name] / capBps
		if !(r > 1-p.Eps1 && r < 1+p.Eps2) {
			return fmt.Errorf("round %d: relay %s estimate ratio %.4f outside (%.2f, %.2f)", rep.Round, name, r, 1-p.Eps1, 1+p.Eps2)
		}
		ph.ratios = append(ph.ratios, r)
	}
	ph.rounds++
	ph.estimates += rep.Conclusive
	ph.roundS = append(ph.roundS, t1.Sub(t0).Seconds())
	ph.roundWall += t1.Sub(t0)
	ph.backendS = append(ph.backendS, (e.attempts.busySum() - busy0).Seconds())
	ph.appends += e.stores.appendCount() - appends0
	if e.tracing {
		lo, hi := since(t0), since(t1)
		children := append(append(e.attempts.spanCopy(), e.stores.spanCopy()...), e.pubs.spanCopy()...)
		ph.roundSelfS = append(ph.roundSelfS, float64(hi-lo-covered(children, lo, hi))/1e9)
	}
	return nil
}

func firstUnmeasured(rep coord.RoundReport) string {
	if len(rep.Unmeasured) == 0 {
		return ""
	}
	u := rep.Unmeasured[0]
	return u.BWAuth + "/" + u.Relay + ": " + u.Reason
}

// views returns every BWAuth's bandwidth file for the last round, in
// BWAuth order.
func (s *coordStack) views() (time.Duration, []*dirauth.BandwidthFile) {
	at := time.Duration(s.rep.Round) * s.cfg.Params.Period
	files := make([]*dirauth.BandwidthFile, len(s.auths))
	for i, a := range s.auths {
		files[i] = a.BandwidthFile(at)
	}
	return at, files
}

// recover closes the store and restarts the coordinator from it (store
// open, load, coord.New), then checks that the recovered coordinator
// republished a snapshot byte-identical to the one it last served.
func (s *coordStack) recover() error {
	e, ph := s.e, s.e.ph
	_, wantSize, wantTag, _, ok := s.holder.Info()
	if !ok {
		return fmt.Errorf("recover: nothing published before the restart")
	}
	if err := s.store.Close(); err != nil {
		return fmt.Errorf("recover: close store: %w", err)
	}
	s.store = nil
	e.resetSpans()
	start := time.Now()
	err := s.open()
	end := time.Now()
	e.ops.attempted++
	if err != nil {
		e.ops.failed++
		return fmt.Errorf("recover: %w", err)
	}
	_, size, tag, _, ok := s.holder.Info()
	if !ok || size != wantSize || tag != wantTag {
		e.ops.failed++
		return fmt.Errorf("recover: republished snapshot (%d bytes, ETag %s) differs from the served one (%d bytes, ETag %s)", size, tag, wantSize, wantTag)
	}
	ph.recoverS = append(ph.recoverS, end.Sub(start).Seconds())
	if e.tracing {
		lo, hi := since(start), since(end)
		children := append(e.stores.spanCopy(), e.pubs.spanCopy()...)
		ph.recoverSelfS = append(ph.recoverSelfS, float64(hi-lo-covered(children, lo, hi))/1e9)
	}
	return nil
}

// publish sends the last round's views through the publisher.
func (s *coordStack) publish(ctx context.Context, pub *publisher, relays int) error {
	at, views := s.views()
	err := pub.publish(ctx, at, views, relays)
	s.e.ops.attempted += len(views) + 1 // submissions and the GET
	if err != nil {
		s.e.ops.failed++
		return fmt.Errorf("publish: %w", err)
	}
	return nil
}

// close closes the store and removes its directory.
func (s *coordStack) close() {
	if s.store != nil {
		s.store.Close()
	}
	os.RemoveAll(s.dir)
}
