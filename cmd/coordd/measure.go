package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"time"

	"flashflow/internal/coord"
	"flashflow/internal/core"
	"flashflow/internal/dirauth"
	"flashflow/internal/obs"
	"flashflow/internal/relay"
	"flashflow/internal/rpc"
	"flashflow/internal/wire"
)

// submitTimeout is the deadline of one submission RPC to the merge node.
const submitTimeout = 10 * time.Second

// runMeasuring drives coordinator rounds over the in-process population
// until o.rounds are done or ctx is cancelled.
func runMeasuring(ctx context.Context, d *daemon) error {
	o, log := d.o, d.log
	auth, source, pool, cleanup, err := population(log, o)
	if err != nil {
		return err
	}
	defer cleanup()

	// BWAuth column: one cached authenticated connection to the merge
	// node, redialed transparently if it restarts between rounds. Its
	// coord_rpc_* counters land in the registry /metrics serves.
	var client *rpc.Client
	id := rpc.DeriveIdentity(o.authSecret, o.name)
	if o.dirauthAddr != "" {
		client, err = rpc.NewClient(rpc.ClientConfig{
			Dial: func(ctx context.Context) (io.ReadWriteCloser, error) {
				var dialer net.Dialer
				return dialer.DialContext(ctx, "tcp", o.dirauthAddr)
			},
			Identity: id,
			Counters: d.counters,
		})
		if err != nil {
			return err
		}
		defer client.Close()
	}

	// Alert manager fed by the per-round anomaly table.
	thresholds := obs.DefaultThresholds()
	thresholds.ClampedSeconds = o.alertClamp
	thresholds.EchoFailures = o.alertEcho
	thresholds.SplitViewRounds = o.alertSplit
	sinks := []obs.Sink{&obs.LogSink{W: log.w, JSON: log.json}}
	if o.webhook != "" {
		sinks = append(sinks, &obs.WebhookSink{URL: o.webhook})
	}
	alerts := obs.NewAlertManager(obs.AlertConfig{
		Thresholds: thresholds,
		Sinks:      sinks,
		Counters:   d.counters,
	})
	defer alerts.Close()

	var c *coord.Coordinator
	cfg := coord.Config{
		Params:              auth.Params,
		Workers:             o.workers,
		MaxAttempts:         o.attempts,
		SlotTimeout:         o.slotTimeout,
		RelayAttemptsPerSec: o.relayRate,
		RelayBurst:          2,
		RoundInterval:       o.interval,
		MaxRounds:           o.rounds,
		SnapshotDir:         o.snapshotDir,
		Pool:                pool,
		Store:               d.store,
		CheckpointEvery:     o.ckptEvery,
		Counters:            d.counters,
		OnSnapshot: func(round int, f *dirauth.BandwidthFile) {
			d.publish(round, f)
			if client != nil {
				submit(ctx, log, client, id, o.name, round, f)
			}
		},
		OnRound: func(r coord.RoundReport) {
			logRound(log, r)
			st := c.Status()
			alerts.Evaluate(r.Round, st.Anomalies, time.Now())
			alerts.Retain(st.Anomalies)
		},
	}
	c, err = coord.New(cfg, []*core.BWAuth{auth}, source)
	if err != nil {
		return err
	}
	if d.store != nil {
		s := c.Status()
		log.event("recover",
			fmt.Sprintf("coordd: durable state from %s: resuming after round %d (%d priors, %d anomaly records)",
				o.stateDir, s.Round, s.Counters["coord_store_recovered_priors"], s.Counters["coord_store_recovered_anomalies"]),
			"state_dir", o.stateDir,
			"round", s.Round,
			"priors", s.Counters["coord_store_recovered_priors"],
			"anomalies", s.Counters["coord_store_recovered_anomalies"])
	}

	loop := func(ctx context.Context) error {
		log.event("start",
			fmt.Sprintf("coordd %s: %d relays, %d measurers, %d workers; ctrl-C for graceful shutdown",
				o.name, o.relays, o.measurers, o.workers),
			"name", o.name, "relays", o.relays, "measurers", o.measurers, "workers", o.workers,
			"sim", o.sim, "dirauth_addr", o.dirauthAddr)
		return c.Run(ctx)
	}
	flush := func(drainCtx context.Context) {
		if err := alerts.Flush(drainCtx); err != nil {
			log.event("shutdown_error", "coordd: alert flush: "+err.Error(), "error", err.Error())
		}
		// §5 anomaly evidence accumulated over the run: relays whose
		// measurements tripped the clamp, echo verification, or the
		// stall/skew/split-view cross-checks (see DESIGN.md).
		anomalies := c.Status().Anomalies
		names := make([]string, 0, len(anomalies))
		for name := range anomalies {
			names = append(names, name)
		}
		sort.Strings(names)
		for i, name := range names {
			a := anomalies[name]
			human := fmt.Sprintf("  %s: clamped-seconds=%d ratio-clamped=%d echo-failures=%d stall=%d skew=%d split-view=%d",
				name, a.ClampedSeconds, a.RatioClampedSlots, a.EchoFailures,
				a.StallSuspectSlots, a.SkewSuspectSlots, a.SplitViewRounds)
			if i == 0 {
				human = "anomaly suspects:\n" + human
			}
			log.event("anomaly", human,
				"relay", name,
				"clamped_seconds", a.ClampedSeconds,
				"ratio_clamped_slots", a.RatioClampedSlots,
				"echo_failures", a.EchoFailures,
				"stall_suspect_slots", a.StallSuspectSlots,
				"skew_suspect_slots", a.SkewSuspectSlots,
				"split_view_rounds", a.SplitViewRounds)
		}
	}
	return d.serve(ctx, obs.Config{Coordinator: c}, "/metrics /status /status/anomalies /v3bw", loop, flush)
}

// logRound emits one round summary.
func logRound(log *logger, r coord.RoundReport) {
	human := r.String()
	if r.SnapshotPath != "" {
		human += "\n  snapshot: " + r.SnapshotPath
	}
	if len(r.Unscheduled) > 0 {
		names := r.Unscheduled
		if len(names) > 5 {
			names = names[:5]
		}
		human += fmt.Sprintf("\n  unscheduled: %d relay(s) did not fit the schedule (team capacity too small): %s",
			len(r.Unscheduled), strings.Join(names, ", "))
	}
	for _, um := range r.Unmeasured {
		human += fmt.Sprintf("\n  unmeasured: %s@%s after %d attempts: %s", um.Relay, um.BWAuth, um.Attempts, um.Reason)
	}
	log.event("round", human,
		"round", r.Round,
		"relays", r.Relays,
		"scheduled", r.Scheduled,
		"conclusive", r.Conclusive,
		"inconclusive", r.Inconclusive,
		"unmeasured", len(r.Unmeasured),
		"unscheduled", len(r.Unscheduled),
		"retries", r.Retries,
		"rate_limited", r.RateLimited,
		"estimates", len(r.Estimates),
		"pool_hits", r.Pool.Hits,
		"pool_misses", r.Pool.Misses,
		"duration_ms", float64(r.Duration)/float64(time.Millisecond),
		"partial", r.Partial,
		"snapshot", r.SnapshotPath)
}

// population builds the in-process relays (relay i is relayNN, its
// capacity stepping up by half of -rate per relay) and the BWAuth o.name
// measuring them. Under -sim the paths are noise-free and echo checks
// off, so the simulation draws no randomness and a run's views are
// byte-identical however the workers interleave; the equivalence test and
// CI's cmp of two merged files rely on this. Otherwise the relays are
// wire targets on localhost listeners, measured over pooled
// authenticated connections; cleanup closes both.
func population(log *logger, o options) (*core.BWAuth, coord.StaticRelays, *coord.Pool, func(), error) {
	p := core.DefaultParams()
	p.SlotSeconds = o.slotSecs
	p.Sockets = o.sockets
	p.CheckProb = 0.01
	team := make([]*core.Measurer, o.measurers)
	for i := range team {
		team[i] = &core.Measurer{Name: fmt.Sprintf("m%d", i), CapacityBps: 500e6, Cores: 2}
	}
	source := make(coord.StaticRelays, o.relays)
	for i := range source {
		source[i] = core.RelayEstimate{Name: fmt.Sprintf("relay%02d", i), EstimateBps: o.baseMbit * 1e6 * (1 + 0.5*float64(i))}
	}

	if o.sim {
		p.CheckProb = 0
		paths := make([]core.PathModel, o.measurers)
		for i := range paths {
			paths[i] = core.PathModel{RTT: 40 * time.Millisecond, LinkBps: 1e9}
		}
		backend := core.NewSimBackend(paths, 1)
		// The backend draws echo checks at its own probability; keep it
		// the BWAuth's, not NewSimBackend's default.
		backend.CheckProb = p.CheckProb
		for _, r := range source {
			backend.AddTarget(r.Name, &core.SimTarget{
				Relay:    relay.New(relay.Config{Name: r.Name, TorCapBps: r.EstimateBps}),
				LinkBps:  2e9,
				Behavior: core.BehaviorHonest,
			})
			log.event("relay", fmt.Sprintf("%s: simulated, capacity %.1f Mbit/s", r.Name, r.EstimateBps/1e6),
				"name", r.Name, "backend", "sim", "capacity_mbit", r.EstimateBps/1e6)
		}
		return core.NewBWAuth(o.name, team, backend, p), source, nil, func() {}, nil
	}

	pool := coord.NewPool(o.poolSize, o.poolTTL)
	var listeners []net.Listener
	cleanup := func() {
		for _, l := range listeners {
			l.Close()
		}
		pool.Close()
	}
	addrs := make(map[string]string, o.relays)
	members := make([]wire.Member, o.measurers)
	for i := range members {
		id, err := wire.NewIdentity()
		if err != nil {
			cleanup()
			return nil, nil, nil, nil, err
		}
		members[i] = wire.Member{
			Identity: id,
			Dial: func(target string) wire.Dialer {
				addr := addrs[target]
				// Pool key carries the measurer identity so reuse never
				// crosses identities.
				key := fmt.Sprintf("%s/m%d", target, i)
				return pool.Dialer(key, func() (net.Conn, error) {
					return net.Dial("tcp", addr)
				})
			},
		}
	}
	for _, r := range source {
		tgt := wire.NewTarget(wire.TargetConfig{RateBps: r.EstimateBps})
		for _, m := range members {
			tgt.Authorize(m.Identity.Pub)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cleanup()
			return nil, nil, nil, nil, err
		}
		listeners = append(listeners, l)
		go tgt.Serve(l)
		addrs[r.Name] = l.Addr().String()
		log.event("relay", fmt.Sprintf("%s: %s, capacity %.1f Mbit/s", r.Name, l.Addr(), r.EstimateBps/1e6),
			"name", r.Name, "addr", l.Addr().String(), "capacity_mbit", r.EstimateBps/1e6)
	}
	backend := &wire.Backend{Members: members, CheckProb: p.CheckProb, Seed: time.Now().UnixNano()}
	return core.NewBWAuth(o.name, team, backend, p), source, pool, cleanup, nil
}

// submit signs one round's view and delivers it. A *rpc.ServerError is a
// protocol-level rejection (stale after a restart republish, version
// skew) — logged, connection kept; transport errors already got the
// client's one redial retry, so what reaches here is a down or
// unreachable merge node, and the round simply goes unsubmitted (the next
// round retries with a fresh dial).
func submit(ctx context.Context, log *logger, client *rpc.Client, id wire.Identity,
	name string, round int, f *dirauth.BandwidthFile) {
	body, _, err := f.Render()
	if err != nil {
		log.event("submit_error", "  submission render: "+err.Error(),
			"round", round, "error", err.Error())
		return
	}
	sub := &dirauth.Submission{
		BWAuth:  name,
		Round:   round,
		Version: dirauth.SubmissionVersionMax,
		Body:    body,
	}
	sub.Sign(id.Priv)
	callCtx, cancel := context.WithTimeout(ctx, submitTimeout)
	defer cancel()
	resp, err := client.Call(callCtx, rpc.MethodSubmitV3BW, sub.Encode())
	var se *rpc.ServerError
	switch {
	case err == nil:
		log.event("submit", fmt.Sprintf("  submitted round %d: %s", round, resp),
			"round", round, "response", string(resp))
	case errors.As(err, &se):
		log.event("submit_rejected", fmt.Sprintf("  submission round %d rejected: %s", round, se.Msg),
			"round", round, "reason", se.Msg)
	default:
		log.event("submit_error", fmt.Sprintf("  submission round %d failed: %v", round, err),
			"round", round, "error", err.Error())
	}
}
