package coord

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flashflow/internal/core"
	"flashflow/internal/dirauth"
	"flashflow/internal/metrics"
	"flashflow/internal/stats"
	"flashflow/internal/store"
)

// RelaySource yields the relay population at the start of each round: the
// consensus in a real deployment, a fixed list in tests and demos.
// AppendRelays appends it to buf, so the coordinator reuses one slice
// across rounds: at million-relay sizes a fresh copy would be the control
// plane's largest per-round allocation. The returned estimates are only
// used for relays the coordinator has not yet measured; afterwards its
// own medians take over as priors.
type RelaySource interface {
	AppendRelays(buf []core.RelayEstimate) []core.RelayEstimate
}

// StaticRelays is a fixed relay population.
type StaticRelays []core.RelayEstimate

// AppendRelays implements RelaySource.
func (s StaticRelays) AppendRelays(buf []core.RelayEstimate) []core.RelayEstimate {
	return append(buf, s...)
}

// anomalyRetainRounds is how many rounds a departed relay's §5 anomaly
// counters are retained after it leaves the population, so a flapping
// liar that rejoins inside the window keeps its accumulated record.
const anomalyRetainRounds = 8

// Config tunes the Coordinator. Zero values select the documented
// defaults.
type Config struct {
	// Params are the FlashFlow measurement parameters shared by every
	// BWAuth. Defaults to core.DefaultParams().
	Params core.Params
	// Workers bounds concurrently executing slot assignments (default 4).
	Workers int
	// MaxAttempts is the per-slot measurement attempt budget including
	// the first try (default 3). A slot failing every attempt is reported
	// in RoundReport.Unmeasured rather than silently dropped.
	MaxAttempts int
	// RetryBase and RetryMax shape the backoff schedule between attempts
	// (defaults 200 ms and 5 s).
	RetryBase, RetryMax time.Duration
	// RelayAttemptsPerSec and RelayBurst configure the per-relay attempt
	// limiter; zero rate disables it.
	RelayAttemptsPerSec float64
	RelayBurst          int
	// SlotTimeout bounds one slot assignment's wall-clock time (the whole
	// §4.2 doubling loop for that relay, across its measurement attempts):
	// the per-slot context is cancelled when it expires, the backend tears
	// the measurement down promptly, and the slot is retried or reported
	// like any other failure. Zero disables the bound.
	SlotTimeout time.Duration
	// RoundInterval is the pause between the end of one round and the
	// start of the next; zero runs rounds back to back.
	RoundInterval time.Duration
	// MaxRounds stops Run after this process has executed that many
	// rounds; zero runs until the context is cancelled. With a Store, the
	// count is rounds run by this process, not the recovered absolute
	// round number: a coordinator resuming at round 12 with MaxRounds=2
	// runs rounds 13 and 14.
	MaxRounds int
	// SnapshotDir, when set, receives a v3bw-style bandwidth-file
	// snapshot every round.
	SnapshotDir string
	// OnSnapshot, when set, receives every round's merged bandwidth
	// file on the round goroutine, after the round's estimates are
	// folded in — the hook the HTTP observability plane uses to swap in
	// a freshly rendered /v3bw body. The file is built fresh each round
	// and never written to afterwards, so the hook may keep it; it
	// should render promptly to keep the round loop unblocked.
	OnSnapshot func(round int, f *dirauth.BandwidthFile)
	// Pool, when set, is pruned between rounds and surfaced in Status
	// and round reports. The caller wires it into the wire backend's
	// dialers with Pool.Dialer.
	Pool *Pool
	// Store, when set, makes the coordinator's cross-round state durable:
	// New recovers the store's state before the first round (priors,
	// anomaly windows, round counter, the last published v3bw snapshot —
	// which is republished through OnSnapshot during New so /v3bw serves
	// immediately), every prior/anomaly mutation is WAL-appended as it
	// happens, and a full checkpoint is written every CheckpointEvery
	// rounds and again when Run returns, so even SIGINT loses at most
	// the in-flight round. Store errors after recovery never fail a
	// round; they are counted in coord_store_errors.
	Store store.Store
	// CheckpointEvery is the checkpoint cadence in rounds (default 1).
	// Large populations can raise it to amortize snapshot writes; the
	// WAL covers the rounds in between.
	CheckpointEvery int
	// Counters receives the coordinator's operational counters; a fresh
	// registry is created when nil.
	Counters *metrics.Counters
	// OnRound, when set, is called after every round with its report.
	OnRound func(RoundReport)
	// Seed drives the backoff jitter stream (default 1).
	Seed int64
}

func (cfg Config) withDefaults() Config {
	// Only a fully zero Params means "use the defaults"; a partially
	// filled struct passes through so Validate can reject it instead of
	// the coordinator silently discarding the caller's fields.
	if cfg.Params == (core.Params{}) {
		cfg.Params = core.DefaultParams()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 200 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 5 * time.Second
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 1
	}
	if cfg.Counters == nil {
		cfg.Counters = metrics.NewCounters()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// Unmeasured records a slot whose relay produced no estimate this round:
// every attempt failed, or the shutdown drained it before it ran.
type Unmeasured struct {
	Relay    string `json:"relay"`
	BWAuth   string `json:"bwauth"`
	Attempts int    `json:"attempts"`
	Reason   string `json:"reason"`
}

// RoundReport summarizes one completed (or interrupted) round.
// The JSON tags are API surface: the observability plane serves reports
// inside GET /status, so names are stable snake_case.
type RoundReport struct {
	Round    int           `json:"round"`
	Duration time.Duration `json:"duration_ns"`
	// Relays is the population size; Scheduled counts slot assignments
	// (relays × BWAuths that placed them).
	Relays    int `json:"relays"`
	Scheduled int `json:"scheduled"`
	// Estimates holds the per-relay median estimate across BWAuths from
	// this round's measurements — the priors for the next round.
	Estimates map[string]float64 `json:"estimates,omitempty"`
	// Conclusive and Inconclusive count finished slot assignments by
	// outcome quality; Retries counts re-queued attempts.
	Conclusive   int `json:"conclusive"`
	Inconclusive int `json:"inconclusive"`
	Retries      int `json:"retries"`
	RateLimited  int `json:"rate_limited"`
	// Unmeasured lists slots with no estimate after every attempt.
	Unmeasured []Unmeasured `json:"unmeasured,omitempty"`
	// Unscheduled lists relays the §4.3 scheduler could not place.
	Unscheduled []string `json:"unscheduled,omitempty"`
	// Partial marks a round interrupted by shutdown: in-flight slots were
	// drained, queued ones were not started.
	Partial bool `json:"partial"`
	// SnapshotPath is the v3bw file written for this round, if any.
	SnapshotPath string `json:"snapshot_path,omitempty"`
	// Pool is the pool counter snapshot at round end (zero without a pool).
	Pool PoolStats `json:"pool"`
}

// String renders a one-line round summary.
func (r RoundReport) String() string {
	return fmt.Sprintf("round %d: %d relays, %d/%d slots conclusive, %d inconclusive, %d unmeasured, %d retries, pool %d/%d hit/miss, %v",
		r.Round, r.Relays, r.Conclusive, r.Scheduled, r.Inconclusive, len(r.Unmeasured), r.Retries, r.Pool.Hits, r.Pool.Misses, r.Duration.Round(time.Millisecond))
}

// SlotProgress is a live view of one in-flight measurement, fed by the
// streaming sample pipeline: the coordinator tees every backend sample, so
// Status can report how far each relay's current slot has advanced while
// it is still running.
type SlotProgress struct {
	Relay  string `json:"relay"`
	BWAuth string `json:"bwauth"`
	// AllocatedBps is the current attempt's total allocation.
	AllocatedBps float64 `json:"allocated_bps"`
	// SlotSeconds is the attempt's scheduled length; Second counts the
	// seconds streamed so far (0 before the first sample).
	SlotSeconds int `json:"slot_seconds"`
	Second      int `json:"second"`
	// Bytes is the total measurement bytes observed so far this attempt.
	Bytes float64 `json:"bytes"`
	// Started is when the current attempt's slot began.
	Started time.Time `json:"started"`
}

// Status is a point-in-time view of the coordinator. The JSON tags are
// API surface (the observability plane's GET /status); names are stable
// snake_case regardless of internal refactors.
type Status struct {
	// Round is the round currently executing (or last finished).
	Round int `json:"round"`
	// InFlight counts measurements executing right now.
	InFlight int `json:"in_flight"`
	// Measuring lists the in-flight slots with their live per-second
	// progress, sorted by relay then BWAuth.
	Measuring []SlotProgress `json:"measuring,omitempty"`
	// Counters is a snapshot of the operational counters.
	Counters map[string]int64 `json:"counters"`
	// Unscheduled counts relays the most recent round's §4.3 scheduler
	// could not place on at least one BWAuth — capacity pressure the
	// operator should see without digging through round reports.
	Unscheduled int `json:"unscheduled"`
	// Anomalies holds every tracked relay's accumulated §5 defense
	// counters (clamped seconds, echo failures, stall/skew/split-view
	// suspicion). Entries persist across population churn for the
	// configured retention window, so a flapping relay's record is
	// visible here even while it is out of the consensus.
	Anomalies map[string]core.AnomalyCounts `json:"anomalies,omitempty"`
	// LastRound is the most recent round report, nil before the first
	// round completes.
	LastRound *RoundReport `json:"last_round,omitempty"`
}

// Coordinator drives continuous measurement rounds. Create with New, run
// with Run; Status may be called from any goroutine.
type Coordinator struct {
	cfg     Config
	auths   []*core.BWAuth
	source  RelaySource
	backoff *Backoff
	limiter *RelayLimiter

	// Round planning kept across rounds, touched only by Run's
	// goroutine: the schedule builder, whose relay index is also the
	// round's population membership test, and the population buffer the
	// source appends into. The round's job arena
	// and result collector are not kept: they are pointer-free, sized
	// by the round, and dropped before the round's publication.
	builder *core.ScheduleBuilder
	popBuf  []core.RelayEstimate
	capsBuf []float64

	// Durable-state bookkeeping, touched only by New and Run's
	// goroutine: the last published merged v3bw file (retained so
	// checkpoints can persist it), its round, and the round of the most
	// recent checkpoint (so Run's final flush skips a round that
	// finishRound already checkpointed).
	lastV3BW      *dirauth.BandwidthFile
	lastV3BWRound int
	ckptRound     int

	// inFlight counts this coordinator's executing measurements; the
	// coord_in_flight cell counts them too, so the gauge stays exact
	// without a lock on the slot path.
	inFlight atomic.Int64
	// Per-slot counter cells, resolved once by registerCounters.
	ctrAttempted, ctrInFlight, ctrConclusive *atomic.Int64
	ctrSecondsUsed, ctrSecondsSaved          *atomic.Int64

	mu       sync.Mutex
	round    int
	priors   map[string]float64
	last     *RoundReport
	progress map[progressKey]*liveSlot
	// anomalies is the one record of per-relay §5 defense evidence.
	// Entries survive population churn for anomalyRetainRounds rounds
	// after the relay was last seen, so a relay cannot launder its
	// record by flapping in and out of the consensus.
	anomalies map[string]*relayAnomaly
}

// relayAnomaly is one relay's accumulated anomaly evidence plus the last
// round the relay appeared in the population.
type relayAnomaly struct {
	counts   core.AnomalyCounts
	lastSeen int
}

// New validates the configuration and creates a Coordinator. Each
// BWAuth's Backend is wrapped with a thin tee that feeds the streaming
// per-second samples into the coordinator's live progress view
// (Status().Measuring); the wrapped backend forwards everything else
// unchanged.
func New(cfg Config, auths []*core.BWAuth, source RelaySource) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(auths) == 0 {
		return nil, errors.New("coord: need at least one BWAuth")
	}
	seen := make(map[string]bool, len(auths))
	for _, a := range auths {
		if a == nil || a.Name == "" {
			return nil, errors.New("coord: BWAuth without a name")
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("coord: duplicate BWAuth name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if source == nil {
		return nil, errors.New("coord: nil relay source")
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:       cfg,
		auths:     auths,
		source:    source,
		backoff:   NewBackoff(cfg.RetryBase, cfg.RetryMax, cfg.Seed),
		limiter:   NewRelayLimiter(cfg.RelayAttemptsPerSec, cfg.RelayBurst),
		builder:   core.NewScheduleBuilder(),
		priors:    make(map[string]float64),
		progress:  make(map[progressKey]*liveSlot),
		anomalies: make(map[string]*relayAnomaly),
	}
	for _, a := range auths {
		inner := a.Backend
		// Re-creating a coordinator over the same BWAuths (a restart
		// pattern) must not chain tees: unwrap any previous coordinator's
		// wrapper so the old coordinator's progress table — and the old
		// coordinator itself — stop being reachable from the backend.
		if tee, ok := inner.(*progressTee); ok {
			inner = tee.inner
		}
		a.Backend = &progressTee{inner: inner, c: c, auth: a.Name}
	}
	c.registerCounters()
	if cfg.Store != nil {
		if err := c.recover(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// recover loads the durable store's state into a freshly built
// coordinator: priors and §5 anomaly windows resume exactly where the
// previous process left them, the round counter continues (Run starts at
// the recovered round + 1), and the last published v3bw snapshot — if
// one was checkpointed — is pushed through OnSnapshot so the
// observability plane serves it before the first new round completes.
// The BWAuths need no seeding here: every slot passes its relay's
// population estimate, which is the recovered prior where there is one,
// to MeasureTarget, so the first round's doubling loops start from the
// earned estimates instead of the new-relay percentile.
func (c *Coordinator) recover() error {
	st, err := c.cfg.Store.Load()
	if err != nil {
		return fmt.Errorf("coord: recover durable state: %w", err)
	}
	c.mu.Lock()
	c.round = st.Round
	c.ckptRound = st.Round
	for name, bps := range st.Priors {
		c.priors[name] = bps
	}
	for name, rec := range st.Anomalies {
		c.anomalies[name] = &relayAnomaly{counts: rec.Counts, lastSeen: rec.LastSeen}
	}
	c.mu.Unlock()
	ctr := c.cfg.Counters
	ctr.Set("coord_round", int64(st.Round))
	ctr.Set("coord_anomaly_relays", int64(len(st.Anomalies)))
	ctr.Set("coord_store_recovered_priors", int64(len(st.Priors)))
	ctr.Set("coord_store_recovered_anomalies", int64(len(st.Anomalies)))
	if len(st.V3BW.Body) > 0 {
		f, err := dirauth.ParseV3BW(bytes.NewReader(st.V3BW.Body))
		if err != nil {
			// The snapshot body was CRC-checked on the way in, so this is
			// a logic-level surprise; surface it instead of serving junk.
			return fmt.Errorf("coord: recovered v3bw snapshot: %w", err)
		}
		c.lastV3BW, c.lastV3BWRound = f, st.V3BW.Round
		if c.cfg.OnSnapshot != nil {
			c.cfg.OnSnapshot(st.V3BW.Round, f)
			ctr.Inc("coord_snapshots_published")
		}
	}
	return nil
}

// registerCounters pre-creates every counter and gauge the coordinator
// ever touches, at zero. A Prometheus scrape of a freshly started
// coordinator then exposes the full stable metric set — including the §5
// anomaly counters, which would otherwise only appear after the first
// defense fires — so dashboards and alert rules never reference a series
// that does not exist yet.
func (c *Coordinator) registerCounters() {
	ctr := c.cfg.Counters
	for _, name := range []string{
		"coord_rounds_completed",
		"coord_round",
		"coord_in_flight",
		"coord_relays_population",
		"coord_relays_measured",
		"coord_relays_unscheduled",
		"coord_slots_scheduled",
		"coord_slots_attempted",
		"coord_slots_conclusive",
		"coord_slots_inconclusive",
		"coord_slots_unmeasured",
		"coord_slots_rate_limited",
		"coord_slot_errors",
		"coord_slot_retries",
		"coord_slot_timeouts",
		"coord_slot_seconds_used",
		"coord_slot_seconds_saved",
		"coord_anomaly_clamped_seconds",
		"coord_anomaly_ratio_clamped_slots",
		"coord_anomaly_echo_failures",
		"coord_anomaly_stall_slots",
		"coord_anomaly_skew_slots",
		"coord_anomaly_split_view_rounds",
		"coord_anomaly_relays",
		"coord_snapshots_written",
		"coord_snapshot_errors",
		"coord_snapshots_published",
		"coord_store_appended_records",
		"coord_store_checkpoints",
		"coord_store_errors",
		"coord_store_recovered_priors",
		"coord_store_recovered_anomalies",
	} {
		ctr.Add(name, 0)
	}
	c.ctrAttempted = ctr.Counter("coord_slots_attempted")
	c.ctrInFlight = ctr.Counter("coord_in_flight")
	c.ctrConclusive = ctr.Counter("coord_slots_conclusive")
	c.ctrSecondsUsed = ctr.Counter("coord_slot_seconds_used")
	c.ctrSecondsSaved = ctr.Counter("coord_slot_seconds_saved")
}

// progressTee wraps a core.Backend so every slot's stream of per-second
// samples also updates the coordinator's live progress table. The caller's
// sink (the §4.2 early-abort watcher installed by MeasureRelayGuarded)
// still sees every sample.
type progressTee struct {
	inner core.Backend
	c     *Coordinator
	auth  string
}

// progressKey names one BWAuth's slot on one relay in the progress table.
type progressKey struct{ auth, relay string }

func (t *progressTee) RunMeasurement(ctx context.Context, target string, alloc core.Allocation, seconds int, sink core.SampleSink) (core.MeasurementData, error) {
	key := progressKey{auth: t.auth, relay: target}
	p := &liveSlot{fixed: SlotProgress{
		Relay:        target,
		BWAuth:       t.auth,
		AllocatedBps: alloc.TotalBps,
		SlotSeconds:  seconds,
		Started:      time.Now(),
	}}
	t.c.mu.Lock()
	t.c.progress[key] = p
	t.c.mu.Unlock()
	defer func() {
		t.c.mu.Lock()
		// A later attempt on the same relay may have replaced the entry;
		// leave that one alone.
		if t.c.progress[key] == p {
			delete(t.c.progress, key)
		}
		t.c.mu.Unlock()
	}()
	// Samples arrive sequentially (core.SampleSink), so the running total
	// lives here and each sample publishes it with two atomic stores —
	// no coordinator lock on the per-second path.
	var total float64
	tee := func(s core.Sample) {
		for _, v := range s.MeasBytes {
			total += v
		}
		total += s.NormBytes
		p.bytes.Store(math.Float64bits(total))
		p.second.Store(int64(s.Second + 1))
		if sink != nil {
			sink(s)
		}
	}
	return t.inner.RunMeasurement(ctx, target, alloc, seconds, tee)
}

// liveSlot is one in-flight slot's progress entry. The slot's own tee
// is the only writer of the counters; Status reads them without
// stopping it, so a snapshot may pair one sample's second with the next
// sample's bytes.
type liveSlot struct {
	fixed  SlotProgress // Second and Bytes unused
	second atomic.Int64
	bytes  atomic.Uint64 // float64 bits
}

func (p *liveSlot) snapshot() SlotProgress {
	s := p.fixed
	s.Second = int(p.second.Load())
	s.Bytes = math.Float64frombits(p.bytes.Load())
	return s
}

// Status returns a snapshot of the coordinator's state.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Status{
		Round:    c.round,
		InFlight: int(c.inFlight.Load()),
		Counters: c.cfg.Counters.Snapshot(),
	}
	for _, p := range c.progress {
		s.Measuring = append(s.Measuring, p.snapshot())
	}
	if len(c.anomalies) > 0 {
		s.Anomalies = make(map[string]core.AnomalyCounts, len(c.anomalies))
		for name, a := range c.anomalies {
			s.Anomalies[name] = a.counts
		}
	}
	sort.Slice(s.Measuring, func(i, j int) bool {
		if s.Measuring[i].Relay != s.Measuring[j].Relay {
			return s.Measuring[i].Relay < s.Measuring[j].Relay
		}
		return s.Measuring[i].BWAuth < s.Measuring[j].BWAuth
	})
	if c.last != nil {
		rep := *c.last
		s.LastRound = &rep
		s.Unscheduled = len(rep.Unscheduled)
	}
	return s
}

// Priors returns the coordinator's current per-relay priors (the medians
// of the most recent round that measured each relay).
func (c *Coordinator) Priors() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64, len(c.priors))
	for k, v := range c.priors {
		out[k] = v
	}
	return out
}

// Run executes measurement rounds until the context is cancelled or
// cfg.MaxRounds rounds have completed. On cancellation, in-flight
// measurement slots are themselves cancelled — the streaming backends
// tear them down within about one second of data — and drained before Run
// returns the context's error; their completed seconds are salvaged as
// partial estimates where possible, and slots that had not started are
// reported as unmeasured in the final (partial) round report.
func (c *Coordinator) Run(ctx context.Context) error {
	err := c.run(ctx)
	// Final checkpoint on the way out — the SIGINT guarantee: whatever
	// ends the run (cancellation mid-round, MaxRounds, a partial round),
	// the store's snapshot catches up to the last round whose results
	// were folded in, so a restart loses at most the round that was in
	// flight. Skipped when finishRound's cadence checkpoint already
	// covered this round.
	if c.cfg.Store != nil {
		c.mu.Lock()
		round := c.round
		c.mu.Unlock()
		if round != c.ckptRound {
			c.checkpoint()
		}
	}
	return err
}

func (c *Coordinator) run(ctx context.Context) error {
	// Resume after the recovered round: a store that says "round 12 is
	// durable" means the next work is round 13. Without a store c.round
	// is zero and this is the classic start at 1.
	c.mu.Lock()
	start := c.round + 1
	c.mu.Unlock()
	stop := 0
	if c.cfg.MaxRounds > 0 {
		stop = start - 1 + c.cfg.MaxRounds
	}
	for round := start; ; round++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		c.mu.Lock()
		c.round = round
		c.mu.Unlock()
		c.cfg.Counters.Set("coord_round", int64(round))
		// Logged before the round executes: a crash mid-round recovers
		// the in-flight round's number, so the restart resumes after it
		// instead of re-running (and double-counting anomalies for) a
		// round that partially happened.
		c.appendStore(store.Record{Kind: store.KindRound, Round: round})

		rep := c.runRound(ctx, round)
		c.finishRound(&rep)
		if c.cfg.OnRound != nil {
			c.cfg.OnRound(rep)
		}
		if rep.Partial {
			return ctx.Err()
		}
		if stop > 0 && round >= stop {
			return nil
		}
		if c.cfg.Pool != nil {
			c.cfg.Pool.Prune()
		}
		if c.cfg.RoundInterval > 0 {
			t := time.NewTimer(c.cfg.RoundInterval)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
	}
}

// finishRound publishes the report: counters, gauge export, the snapshot
// file and/or the OnSnapshot publication hook, last-round state.
func (c *Coordinator) finishRound(rep *RoundReport) {
	ctr := c.cfg.Counters
	ctr.Inc("coord_rounds_completed")
	ctr.Add("coord_slots_unmeasured", int64(len(rep.Unmeasured)))
	ctr.Add("coord_relays_unscheduled", int64(len(rep.Unscheduled)))
	ctr.Set("coord_relays_population", int64(rep.Relays))
	ctr.Set("coord_relays_measured", int64(len(rep.Estimates)))
	if c.cfg.Pool != nil {
		rep.Pool = c.cfg.Pool.Stats()
		ctr.Set("coord_pool_hits", rep.Pool.Hits)
		ctr.Set("coord_pool_misses", rep.Pool.Misses)
		ctr.Set("coord_pool_evictions", rep.Pool.Evictions)
		ctr.Set("coord_pool_idle", int64(rep.Pool.Idle))
	}
	wantDisk := c.cfg.SnapshotDir != ""
	wantHook := c.cfg.OnSnapshot != nil
	if wantDisk || wantHook {
		// Merge every BWAuth's bandwidth file exactly once per publication
		// and fan the result out to both consumers: the hook gets the
		// in-memory file (the observability plane renders and atomically
		// swaps its cached /v3bw body from it), the snapshot directory
		// gets the streamed on-disk copy.
		merged := c.buildSnapshot(rep.Round)
		// Retain the published file so checkpoints persist it: after a
		// restart the observability plane serves the last published body
		// before the first new round completes.
		c.lastV3BW, c.lastV3BWRound = merged, rep.Round
		if wantHook {
			c.cfg.OnSnapshot(rep.Round, merged)
			ctr.Inc("coord_snapshots_published")
		}
		if wantDisk {
			path, err := c.writeSnapshot(rep.Round, merged)
			if err == nil {
				rep.SnapshotPath = path
				ctr.Inc("coord_snapshots_written")
			} else {
				ctr.Inc("coord_snapshot_errors")
			}
		}
	}
	c.mu.Lock()
	repCopy := *rep
	c.last = &repCopy
	c.mu.Unlock()
	if c.cfg.Store != nil && rep.Round%c.cfg.CheckpointEvery == 0 {
		c.checkpoint()
	}
}

// appendStore logs records to the durable store, if one is configured.
// Store failures after recovery never fail a round: the measurement plane
// keeps running on its in-memory state and the failure is visible as
// coord_store_errors. Safe for concurrent use — the store serializes
// appends internally.
func (c *Coordinator) appendStore(recs ...store.Record) {
	if c.cfg.Store == nil || len(recs) == 0 {
		return
	}
	if err := c.cfg.Store.Append(recs...); err != nil {
		c.cfg.Counters.Inc("coord_store_errors")
		return
	}
	c.cfg.Counters.Add("coord_store_appended_records", int64(len(recs)))
}

// checkpoint writes the coordinator's full cross-round state (round
// counter, priors, anomaly windows, last published v3bw body) as a new
// snapshot generation and resets the WAL. Runs on the round goroutine.
func (c *Coordinator) checkpoint() {
	st := store.NewState()
	c.mu.Lock()
	st.Round = c.round
	for name, bps := range c.priors {
		st.Priors[name] = bps
	}
	for name, a := range c.anomalies {
		st.Anomalies[name] = store.AnomalyRecord{Counts: a.counts, LastSeen: a.lastSeen}
	}
	c.mu.Unlock()
	if c.lastV3BW != nil {
		body, _, err := c.lastV3BW.Render()
		if err == nil {
			st.V3BW = store.V3BW{Round: c.lastV3BWRound, Body: body}
		} else {
			c.cfg.Counters.Inc("coord_store_errors")
		}
	}
	if err := c.cfg.Store.Checkpoint(st); err != nil {
		c.cfg.Counters.Inc("coord_store_errors")
		return
	}
	c.ckptRound = st.Round
	c.cfg.Counters.Inc("coord_store_checkpoints")
}

// population builds this round's scheduler input: the source's relay list
// with the coordinator's own medians substituted as priors for every
// relay measured in a previous round — the feedback loop that lets an
// accurate round shrink the next round's excess allocations. Every
// entry leaves with a positive EstimateBps, the prior its slots pass to
// MeasureTarget. The source fills the coordinator's reused buffer
// instead of allocating a fresh copy each round.
func (c *Coordinator) population() []core.RelayEstimate {
	c.popBuf = c.source.AppendRelays(c.popBuf[:0])
	relays := c.popBuf
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range relays {
		if prior, ok := c.priors[relays[i].Name]; ok && prior > 0 {
			relays[i].EstimateBps = prior
			relays[i].New = false
		} else if relays[i].EstimateBps <= 0 {
			relays[i].EstimateBps = core.NewRelayPrior(nil, c.cfg.Params)
			relays[i].New = true
		}
	}
	return relays
}

// roundSeed runs the §4.3 commit-reveal shared-randomness protocol across
// the BWAuths and derives this round's schedule seed.
func (c *Coordinator) roundSeed(round int) ([]byte, error) {
	commits := make([]core.Commitment, 0, len(c.auths))
	reveals := make([]core.Reveal, 0, len(c.auths))
	for _, a := range c.auths {
		r, err := core.NewRandomReveal(a.Name)
		if err != nil {
			return nil, err
		}
		commits = append(commits, r.Commit())
		reveals = append(reveals, r)
	}
	shared, err := core.SharedRandomness(commits, reveals)
	if err != nil {
		return nil, err
	}
	return core.PeriodSeed(shared, uint64(round)), nil
}

// maxCapacityDeferrals bounds how often a slot may be deferred because
// in-flight measurements hold the team's residual capacity, guaranteeing
// termination even under sustained contention.
const maxCapacityDeferrals = 8

// recordAnomalies folds one relay's new §5 evidence into the windowed
// table and the operational counters, and returns the WAL record of the
// delta for the caller to log. Zero counts are neither folded nor logged
// (ok is false): the retention sweep refreshes lastSeen on its own.
func (c *Coordinator) recordAnomalies(relay string, counts core.AnomalyCounts) (rec store.Record, ok bool) {
	if counts.Total() == 0 {
		return store.Record{}, false
	}
	ctr := c.cfg.Counters
	ctr.Add("coord_anomaly_clamped_seconds", counts.ClampedSeconds)
	ctr.Add("coord_anomaly_ratio_clamped_slots", counts.RatioClampedSlots)
	ctr.Add("coord_anomaly_echo_failures", counts.EchoFailures)
	ctr.Add("coord_anomaly_stall_slots", counts.StallSuspectSlots)
	ctr.Add("coord_anomaly_skew_slots", counts.SkewSuspectSlots)
	ctr.Add("coord_anomaly_split_view_rounds", counts.SplitViewRounds)
	c.mu.Lock()
	a := c.anomalies[relay]
	if a == nil {
		a = &relayAnomaly{}
		c.anomalies[relay] = a
	}
	a.counts.Add(counts)
	a.lastSeen = c.round
	rnd := c.round
	ctr.Set("coord_anomaly_relays", int64(len(c.anomalies)))
	c.mu.Unlock()
	// The delta, not the accumulated total: replay re-accumulates, so
	// evidence logged before a crash survives into the restart's windows
	// exactly once.
	return store.Record{Kind: store.KindAnomaly, Relay: relay, Round: rnd, Counts: counts}, true
}

// Anomalies returns the relay's accumulated counters (present even while
// the relay is out of the population, within the retention window).
func (c *Coordinator) Anomalies(relay string) (core.AnomalyCounts, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.anomalies[relay]
	if !ok {
		return core.AnomalyCounts{}, false
	}
	return a.counts, true
}

// slotJob is one schedule assignment moving through the retry pipeline.
// It holds no pointer, so the round's job arena is memory the garbage
// collector never scans: the relay is an index into the round's
// population, the BWAuth an index into c.auths.
type slotJob struct {
	relay   int32
	auth    int32
	attempt int32 // measurement attempts consumed so far
	// Deferral counts, separate so rate-limit waits cannot exhaust the
	// capacity-collision budget; neither consumes a measurement attempt.
	rlDeferrals  int32
	capDeferrals int32
	// salvageBps is what finalize reports for a job that never
	// concludes: the estimate of its last successful attempt, or of a
	// later failed one that still produced an estimate; 0 reports the
	// job unmeasured.
	salvageBps float64
}

// roundCollector accumulates a round's results. est is dense and
// pointer-free: est[relay*auths+auth] is that BWAuth's estimate of the
// population's relay-th entry this round, NaN if it has none. Each cell
// belongs to the one job of its (relay, BWAuth) assignment, so it is
// written without the lock and read after every job has finished; the
// counters and the unmeasured list are shared and take mu.
type roundCollector struct {
	auths int
	est   []float64

	mu           sync.Mutex
	conclusive   int
	inconclusive int
	retries      int
	rateLimited  int
	unmeasured   []Unmeasured
}

func newRoundCollector(relays, auths int) *roundCollector {
	rc := &roundCollector{auths: auths, est: make([]float64, relays*auths)}
	for i := range rc.est {
		rc.est[i] = math.NaN()
	}
	return rc
}

// setEstimate records the estimate of the job's (relay, BWAuth) cell.
func (rc *roundCollector) setEstimate(j *slotJob, bps float64) {
	rc.est[int(j.relay)*rc.auths+int(j.auth)] = bps
}

// relayEstimates appends the relay's estimates, in BWAuth order, to buf.
func (rc *roundCollector) relayEstimates(buf []float64, relay int) []float64 {
	for _, e := range rc.est[relay*rc.auths : (relay+1)*rc.auths] {
		if !math.IsNaN(e) {
			buf = append(buf, e)
		}
	}
	return buf
}

// roundJobs is one round's work in flight: the population the jobs index
// into, the job arena, and the queue of arena indices the workers drain.
// It lives for one execute call.
type roundJobs struct {
	ctx     context.Context
	pop     []core.RelayEstimate
	jobs    []slotJob
	queue   chan int32
	pending sync.WaitGroup
	col     *roundCollector
}

func (r *roundJobs) name(j *slotJob) string { return r.pop[j.relay].Name }

// runRound executes one full round: population, seed, schedule, then the
// worker pool over every slot assignment with retries.
func (c *Coordinator) runRound(ctx context.Context, round int) RoundReport {
	start := time.Now()
	rep := RoundReport{Round: round, Estimates: make(map[string]float64)}

	population := c.population()
	rep.Relays = len(population)

	seed, err := c.roundSeed(round)
	if err != nil {
		rep.Unmeasured = append(rep.Unmeasured, Unmeasured{Reason: "seed: " + err.Error()})
		rep.Duration = time.Since(start)
		return rep
	}
	if cap(c.capsBuf) < len(c.auths) {
		c.capsBuf = make([]float64, len(c.auths))
	}
	teamCaps := c.capsBuf[:len(c.auths)]
	for i, a := range c.auths {
		teamCaps[i] = core.TeamCapacityBps(a.Team)
	}
	// The reused builder keeps its indexed slot structures, relay→slot
	// index, and the schedule's slot arrays warm; the returned schedule
	// is only valid until the next Build, which is fine — it is fully
	// flattened into jobs below.
	sched, err := c.builder.Build(seed, population, teamCaps, c.cfg.Params)
	if err != nil {
		rep.Unmeasured = append(rep.Unmeasured, Unmeasured{Reason: "schedule: " + err.Error()})
		rep.Duration = time.Since(start)
		return rep
	}
	rep.Unscheduled = append(rep.Unscheduled, sched.Unscheduled...)

	// Flatten slot-major so earlier slots start first, preserving the
	// schedule's rough ordering under the worker pool.
	jobs := make([]slotJob, 0, sched.Assignments())
	for slot := 0; slot < sched.NumSlots; slot++ {
		for b := range sched.PerBWAuth {
			for _, a := range sched.PerBWAuth[b][slot] {
				jobs = append(jobs, slotJob{relay: int32(a.Index), auth: int32(b)})
			}
		}
	}
	rep.Scheduled = len(jobs)
	c.cfg.Counters.Add("coord_slots_scheduled", int64(len(jobs)))

	col := newRoundCollector(len(population), len(c.auths))
	c.execute(ctx, population, jobs, col)

	rep.Conclusive = col.conclusive
	rep.Inconclusive = col.inconclusive
	rep.Retries = col.retries
	rep.RateLimited = col.rateLimited
	rep.Unmeasured = append(rep.Unmeasured, col.unmeasured...)
	// The round's WAL batch: the split-view evidence and the medians
	// folded in, plus the retention sweep's deletions and refreshes.
	// Built per round and dropped with it, like the arena and the
	// collector.
	recs := make([]store.Record, 0, len(population)+len(population)/8)
	// The round's medians and split-view check read this round's
	// estimates only, not the BWAuths' views: a view also keeps the
	// estimate of a BWAuth that measured the relay in an earlier round
	// but not in this one.
	medians := make(map[string]float64, len(population))
	ests := make([]float64, 0, len(c.auths))
	for i := range population {
		ests = col.relayEstimates(ests[:0], i)
		if len(ests) == 0 {
			continue
		}
		relay := population[i].Name
		medians[relay] = stats.Median(ests)
		// §5 selective lying: the merge node's rule, over the estimates
		// this round's BWAuths reported.
		if dirauth.SplitView(ests, dirauth.SplitViewFactor) {
			if rec, ok := c.recordAnomalies(relay, core.AnomalyCounts{SplitViewRounds: 1}); ok {
				recs = append(recs, rec)
			}
		}
	}
	rep.Estimates = medians

	c.mu.Lock()
	for relay, m := range medians {
		c.priors[relay] = m
		recs = append(recs, store.Record{Kind: store.KindPrior, Relay: relay, Bps: m})
	}
	c.mu.Unlock()

	// Forget relays that left the population: limiter buckets, the
	// coordinator's priors, and the BWAuths' tables would otherwise grow
	// (and keep publishing departed relays) for the life of the service.
	// The schedule builder's relay index is the membership test.
	keep := c.builder.Listed
	c.limiter.Retain(keep)
	for _, a := range c.auths {
		a.Retain(keep)
	}
	c.mu.Lock()
	for name := range c.priors {
		if !keep(name) {
			delete(c.priors, name)
			recs = append(recs, store.Record{Kind: store.KindPriorDelete, Relay: name})
		}
	}
	// Anomaly records are retained across churn for the configured
	// window: a relay still in the population refreshes its lastSeen; a
	// departed relay's record survives anomalyRetainRounds rounds, so
	// rejoining inside the window finds its history intact (the flapping
	// liar cannot reset its record), and only a long-gone relay's entry
	// is forgotten.
	for name, a := range c.anomalies {
		if keep(name) {
			if a.lastSeen != round {
				// The refresh must reach the WAL too (a zero-count
				// anomaly record only stamps LastSeen on replay), or a
				// recovered coordinator would age this relay's window
				// out earlier than the live one.
				a.lastSeen = round
				recs = append(recs, store.Record{Kind: store.KindAnomaly, Relay: name, Round: round})
			}
		} else if round-a.lastSeen > anomalyRetainRounds {
			delete(c.anomalies, name)
			recs = append(recs, store.Record{Kind: store.KindAnomalyDelete, Relay: name})
		}
	}
	c.cfg.Counters.Set("coord_anomaly_relays", int64(len(c.anomalies)))
	c.mu.Unlock()
	// One batched WAL append per round for the whole feedback-loop
	// mutation set. A single Append is a single fsync regardless of
	// population size.
	c.appendStore(recs...)

	rep.Partial = ctx.Err() != nil
	rep.Duration = time.Since(start)
	return rep
}

// execute runs the jobs on the bounded worker pool, re-queueing retries
// after their backoff delay. It returns when every job has been finalized
// (measured, exhausted, or drained by shutdown).
func (c *Coordinator) execute(ctx context.Context, pop []core.RelayEstimate, jobs []slotJob, col *roundCollector) {
	if len(jobs) == 0 {
		return
	}
	// Capacity len(jobs) guarantees enqueues never block: a job is in the
	// queue, running, or waiting on a retry timer — never duplicated.
	r := &roundJobs{ctx: ctx, pop: pop, jobs: jobs, queue: make(chan int32, len(jobs)), col: col}
	r.pending.Add(len(jobs))
	for i := range jobs {
		r.queue <- int32(i)
	}

	var workers sync.WaitGroup
	for w := 0; w < c.cfg.Workers; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := range r.queue {
				c.runJob(r, i)
			}
		}()
	}
	r.pending.Wait()
	close(r.queue)
	workers.Wait()
}

// runJob performs one attempt of job i.
func (c *Coordinator) runJob(r *roundJobs, i int32) {
	ctx, j, col := r.ctx, &r.jobs[i], r.col
	ctr := c.cfg.Counters
	if ctx.Err() != nil {
		c.finalize(r, i, "shutdown before slot started")
		return
	}
	relay, auth := r.name(j), c.auths[j.auth]
	if !c.limiter.Allow(relay) {
		ctr.Inc("coord_slots_rate_limited")
		col.mu.Lock()
		col.rateLimited++
		col.mu.Unlock()
		// Deferral does not consume a measurement attempt; the bucket
		// refills while the job waits out a backoff delay.
		j.rlDeferrals++
		c.requeue(r, i, "rate limited")
		return
	}

	c.ctrAttempted.Add(1)
	c.inFlight.Add(1)
	c.ctrInFlight.Add(1)
	// Per-slot context: shutdown cancels the in-flight measurement (the
	// backend tears the slot down within about a second of data instead of
	// waiting out the full slot), and the optional slot timeout bounds a
	// wedged slot the same way.
	slotCtx := ctx
	cancelSlot := context.CancelFunc(func() {})
	if c.cfg.SlotTimeout > 0 {
		slotCtx, cancelSlot = context.WithTimeout(ctx, c.cfg.SlotTimeout)
	}
	out, err := auth.MeasureTarget(slotCtx, relay, r.pop[j.relay].EstimateBps)
	cancelSlot()
	c.inFlight.Add(-1)
	c.ctrInFlight.Add(-1)
	j.attempt++

	// Slot-second accounting for the §4.2 early abort: used is what the
	// streaming pipeline consumed, saved is what fixed-length slots would
	// have consumed on top of it (the abort refactor's dividend, exported
	// as a counter so /metrics shows it accumulating live).
	if used := out.SlotSecondsUsed(); used > 0 || len(out.Attempts) > 0 {
		scheduled := len(out.Attempts) * auth.Params.SlotSeconds
		c.ctrSecondsUsed.Add(int64(used))
		if saved := scheduled - used; saved > 0 {
			c.ctrSecondsSaved.Add(int64(saved))
		}
	}

	// Fold the slot's §5 defense evidence into the windowed per-relay
	// record — including failed slots: an echo-verification catch is the
	// strongest signal there is. Derived with the measuring BWAuth's own
	// Params, the ones its slot ran with (BWAuths are caller-constructed
	// and may diverge from cfg.Params).
	counts := core.OutcomeAnomalies(out, auth.Params)
	if errors.Is(err, core.ErrMeasurementFailed) {
		counts.EchoFailures++
	}
	if rec, ok := c.recordAnomalies(relay, counts); ok {
		c.appendStore(rec)
	}

	if err != nil {
		ctr.Inc("coord_slot_errors")
		// Salvage any estimate the failed run produced (e.g. the doubling
		// loop's earlier attempts succeeded before a connection dropped,
		// or a cancelled slot's completed seconds were aggregated):
		// finalize reports a job with an estimate as inconclusively
		// measured rather than unmeasured.
		if out.EstimateBps > 0 {
			j.salvageBps = out.EstimateBps
		}
		if ctx.Err() != nil {
			// Shutdown cancelled the in-flight slot; don't burn backoff
			// timers on a dying coordinator.
			c.finalize(r, i, "shutdown cancelled in-flight slot")
			return
		}
		if errors.Is(err, context.DeadlineExceeded) {
			ctr.Inc("coord_slot_timeouts")
			c.retryOrFail(r, i, "slot timeout after "+c.cfg.SlotTimeout.String())
			return
		}
		if errors.Is(err, core.ErrInsufficientCapacity) && j.capDeferrals < maxCapacityDeferrals {
			// The allocation collided with in-flight measurements holding
			// the team's residual capacity — a scheduling artifact of
			// overlapping slots, not a relay failure. Defer with backoff
			// instead of burning one of the relay's attempts.
			j.attempt--
			j.capDeferrals++
			c.requeue(r, i, "insufficient residual team capacity")
			return
		}
		c.retryOrFail(r, i, err.Error())
		return
	}
	j.salvageBps = out.EstimateBps
	if out.Conclusive {
		c.ctrConclusive.Add(1)
		col.setEstimate(j, out.EstimateBps)
		col.mu.Lock()
		col.conclusive++
		col.mu.Unlock()
		r.pending.Done()
		return
	}
	ctr.Inc("coord_slots_inconclusive")
	c.retryOrFail(r, i, "inconclusive")
}

// retryOrFail re-queues job i with backoff if attempts remain, otherwise
// finalizes it.
func (c *Coordinator) retryOrFail(r *roundJobs, i int32, reason string) {
	if int(r.jobs[i].attempt) >= c.cfg.MaxAttempts {
		c.finalize(r, i, reason)
		return
	}
	c.requeue(r, i, reason)
}

// requeue schedules job i's next attempt after its backoff delay. If
// shutdown arrives while the job waits, it is finalized instead.
func (c *Coordinator) requeue(r *roundJobs, i int32, reason string) {
	j := &r.jobs[i]
	c.cfg.Counters.Inc("coord_slot_retries")
	r.col.mu.Lock()
	r.col.retries++
	r.col.mu.Unlock()
	// Never wait zero: a deferral before the first attempt (rate limit,
	// capacity collision) would otherwise hot-loop through the queue
	// until its condition clears.
	step := int(max(j.attempt, j.rlDeferrals+j.capDeferrals, 1))
	delay := c.backoff.Next(step)
	time.AfterFunc(delay, func() {
		select {
		case <-r.ctx.Done():
			c.finalize(r, i, "shutdown during retry backoff after: "+reason)
		default:
			r.queue <- i
		}
	})
}

// finalize records job i's terminal state and releases it. A job with
// any estimate counts as inconclusively measured; one with none lands in
// the unmeasured list — never silently dropped.
func (c *Coordinator) finalize(r *roundJobs, i int32, reason string) {
	j, col := &r.jobs[i], r.col
	if j.salvageBps > 0 {
		col.setEstimate(j, j.salvageBps)
		col.mu.Lock()
		col.inconclusive++
		col.mu.Unlock()
	} else {
		col.mu.Lock()
		col.unmeasured = append(col.unmeasured, Unmeasured{
			Relay:    r.name(j),
			BWAuth:   c.auths[j.auth].Name,
			Attempts: int(j.attempt),
			Reason:   reason,
		})
		col.mu.Unlock()
	}
	r.pending.Done()
}

// buildSnapshot merges every BWAuth's current bandwidth file into the
// round's publishable snapshot.
func (c *Coordinator) buildSnapshot(round int) *dirauth.BandwidthFile {
	at := time.Duration(round) * c.cfg.Params.Period
	files := make([]*dirauth.BandwidthFile, len(c.auths))
	for i, a := range c.auths {
		files[i] = a.BandwidthFile(at)
	}
	return dirauth.MergeMedianFile("coord", at, files)
}

// writeSnapshot streams a round's merged v3bw-style snapshot straight to
// disk: a million-line bandwidth file is never materialized in memory.
func (c *Coordinator) writeSnapshot(round int, merged *dirauth.BandwidthFile) (string, error) {
	if err := os.MkdirAll(c.cfg.SnapshotDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(c.cfg.SnapshotDir, fmt.Sprintf("v3bw-round-%05d.txt", round))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	if _, err := merged.WriteTo(f); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}
