// Command perfbench is the repository's end-to-end benchmark. It drives
// the real program through its public functions on one of three
// workloads, checks every output, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics) as a JSON object on its
// last line of standard output. See README.md for the workloads, the
// metrics and how to read the traced table.
//
//	bash perfbench/run.sh --workload measure-tcp --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"
)

// workload is one benchmark scenario. setup builds everything the
// measured phase needs; iterate runs one round with its publication and
// restart and records into env.ph. The first iteration after the last
// build is the warm-up: it makes the first dials and authentications,
// gives the merge node a view from every BWAuth (it re-merges on every
// submission only from then on), and pays the process's one-time costs.
type workload interface {
	setup() error
	iterate(ctx context.Context) error
	teardown()
}

// setupReps is how many times a run builds its workload (keeping the
// last build); setup_s is the median build plus the one warm-up cycle.
const setupReps = 3

// deadline fails a stalled run with a goroutine dump, inside the 180 s
// a run may take.
const deadline = 170 * time.Second

// env is the state every layer decorator writes into.
type env struct {
	seed    int64
	secret  string
	tmp     string
	tracing bool

	attempts *attemptLog
	stores   *storeLog
	dials    *dialLog
	pubs     *publishLog
	ops      struct{ attempted, failed, echoFailed int }
	ph       *phase
}

// phase accumulates one measured phase.
type phase struct {
	rounds       int
	cycleS       []float64
	roundS       []float64
	roundSelfS   []float64
	backendS     []float64
	roundWall    time.Duration
	cpu          time.Duration // process CPU over the whole phase
	ratios       []float64
	estimates    int
	appends      int
	recoverS     []float64
	recoverSelfS []float64
	poolHits     int64
	poolMisses   int64

	// Copies of the decorators' logs at the end of the phase.
	attempts attemptData
	stores   storeData
	dials    dialData
	pubs     publishData
	realtime bool
}

func (e *env) setTracing(on bool) {
	e.tracing = on
	e.attempts.tracing, e.stores.tracing, e.pubs.tracing = on, on, on
}

// resetLogs starts a new phase, folding the finished attempt counts into
// the run's operation totals.
func (e *env) resetLogs() {
	e.foldAttempts()
	e.attempts.reset()
	e.stores.reset()
	e.dials.reset()
	e.pubs.reset()
	e.ph = &phase{}
}

func (e *env) foldAttempts() {
	l := e.attempts
	l.mu.Lock()
	defer l.mu.Unlock()
	e.ops.attempted += l.d.attempts
	e.ops.failed += l.d.failed
	e.ops.echoFailed += l.d.echoFailed
	for _, f := range l.d.failures {
		fmt.Fprintln(os.Stderr, "perfbench: slot attempt failed:", f)
	}
	l.d.attempts, l.d.failed, l.d.echoFailed, l.d.failures = 0, 0, 0, nil
}

// resetSpans drops the spans kept for the previous parent span.
func (e *env) resetSpans() {
	e.attempts.mu.Lock()
	e.attempts.d.spans = e.attempts.d.spans[:0]
	e.attempts.mu.Unlock()
	e.stores.mu.Lock()
	e.stores.d.spans = e.stores.d.spans[:0]
	e.stores.mu.Unlock()
	e.pubs.mu.Lock()
	e.pubs.d.spans = e.pubs.d.spans[:0]
	e.pubs.mu.Unlock()
}

func (l *attemptLog) busySum() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.d.busy
}

func (l *attemptLog) spanCopy() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.d.spans...)
}

func (l *storeLog) appendCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.d.appends
}

func (l *storeLog) spanCopy() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.d.spans...)
}

func (l *publishLog) spanCopy() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.d.spans...)
}

// runPhase iterates the workload until seconds have passed (at least one
// iteration) and snapshots the logs.
func runPhase(ctx context.Context, e *env, w workload, seconds time.Duration) (*phase, error) {
	e.resetLogs()
	ph := e.ph
	cpu0, start := cpuNow(), time.Now()
	for ph.rounds == 0 || time.Since(start) < seconds {
		if err := w.iterate(ctx); err != nil {
			return ph, err
		}
	}
	ph.cpu = cpuNow() - cpu0
	e.attempts.mu.Lock()
	ph.attempts, ph.realtime = e.attempts.d, e.attempts.realtime
	e.attempts.mu.Unlock()
	e.stores.mu.Lock()
	ph.stores = e.stores.d
	e.stores.mu.Unlock()
	e.dials.mu.Lock()
	ph.dials = e.dials.d
	e.dials.mu.Unlock()
	e.pubs.mu.Lock()
	ph.pubs = e.pubs.d
	e.pubs.mu.Unlock()
	return ph, nil
}

// metric is one reported number with its sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

func main() {
	workloadName := flag.String("workload", "", "measure-tcp, newrelay-udp or control-100k")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	tmpRoot := flag.String("tmp", ".bench_build/tmp", "directory for state files (removed at exit)")
	flag.Parse()

	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; goroutines:\n", deadline)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
	defer watchdog.Stop()

	tmp, err := os.MkdirTemp(*tmpRoot, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	e := &env{
		seed:     *seed,
		secret:   fmt.Sprintf("perfbench-seed-%d", *seed),
		tmp:      tmp,
		attempts: &attemptLog{},
		stores:   &storeLog{},
		dials:    &dialLog{},
		pubs:     &publishLog{},
		ph:       &phase{},
	}
	var w workload
	switch *workloadName {
	case "measure-tcp":
		w = newSlotWorkload(e, false)
		e.attempts.realtime = true
	case "newrelay-udp":
		w = newSlotWorkload(e, true)
		e.attempts.realtime = true
	case "control-100k":
		w = newControlWorkload(e)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workloadName)
		os.RemoveAll(tmp)
		os.Exit(2)
	}

	metrics, err := run(e, w, time.Duration(*seconds)*time.Second, *trace == 1)
	e.foldAttempts()
	// A failed slot attempt is retried by the coordinator and counted in
	// "failed"; the round gates decide whether the run still measured
	// every relay. An echo-verification failure against an honest target
	// is a wrong output, and fails the run.
	if err == nil && e.ops.echoFailed > 0 {
		err = fmt.Errorf("%d slots failed echo verification against honest targets", e.ops.echoFailed)
	}
	os.RemoveAll(tmp)
	fmt.Printf("workload %s, seed %d, %d s measured, trace %d\n", *workloadName, *seed, *seconds, *trace)
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: err == nil, Attempted: e.ops.attempted, Failed: e.ops.failed, Metrics: map[string]map[string]any{}}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
	} else {
		for _, m := range metrics {
			fmt.Printf("  %-32s %14.6g %-12s n=%d\n", m.name, m.value, m.unit, m.n)
			out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	if out.Attempted < 1 {
		// A run that failed before its first operation still reports one
		// attempted and failed operation: the result format needs one.
		out.Attempted = 1
		out.Failed = max(out.Failed, 1)
	}
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
	if err != nil {
		os.Exit(1)
	}
}

// run builds the workload setupReps times (keeping the last build), warms
// it up with one cycle, then runs the measured phase: once untraced for the end-to-end
// metrics, or, for the per-layer table, an untraced and a traced pass of
// half the length each.
func run(e *env, w workload, seconds time.Duration, traced bool) ([]metric, error) {
	ctx := context.Background()
	defer w.teardown()
	var setupS []float64
	for i := range setupReps {
		if i > 0 {
			w.teardown()
		}
		e.resetLogs()
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	start := time.Now()
	if err := w.iterate(ctx); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	warmS := time.Since(start).Seconds()
	if traced {
		seconds /= 2
	}
	plain, err := runPhase(ctx, e, w, seconds)
	if err != nil {
		return nil, err
	}
	if !traced {
		return endToEnd(plain, median(setupS)+warmS, len(setupS)), nil
	}
	tracedPh, tr, err := runTraced(ctx, e, w, seconds)
	if err != nil {
		return nil, err
	}
	return perLayer(plain, tracedPh, tr), nil
}

// traceData is what the traced phase measured beside the decorators.
type traceData struct {
	cpuNs    map[string]float64
	rt0, rt1 rtSample
	io0, io1 procIO
	heapPeak uint64
}

func runTraced(ctx context.Context, e *env, w workload, seconds time.Duration) (*phase, traceData, error) {
	var td traceData
	e.setTracing(true)
	defer e.setTracing(false)
	prof, err := startProfile(filepath.Join(e.tmp, "cpu.pprof"))
	if err != nil {
		return nil, td, err
	}
	heap := startHeapSampler()
	td.rt0 = readRuntime()
	io0, ioErr := readProcIO()
	ph, err := runPhase(ctx, e, w, seconds)
	io1, ioErr1 := readProcIO()
	td.rt1 = readRuntime()
	td.heapPeak = heap.finish()
	if perr := prof.stop(); err == nil {
		err = perr
	}
	if err != nil {
		return nil, td, err
	}
	if ioErr != nil || ioErr1 != nil {
		return nil, td, fmt.Errorf("read /proc/self/io: %v %v", ioErr, ioErr1)
	}
	td.io0, td.io1 = io0, io1
	td.cpuNs, err = prof.attribute()
	return ph, td, err
}

// cellSize is the on-wire cell length; the data plane's per-cell
// figures divide by the echoed bytes over it.
const cellSize = 514

func gbit(ph *phase) float64 { return ph.attempts.bytes * 8 / 1e9 }

func cpuPerGbit(ph *phase) float64 { return ph.cpu.Seconds() / gbit(ph) }

func endToEnd(ph *phase, setupS float64, builds int) []metric {
	a := &ph.attempts
	return []metric{
		{"setup_s", setupS, "s", builds},
		{"peak_rss_mb", peakRSSMiB(), "MiB", 1},
		{"goodput_gbit_s", gbit(ph) / ph.roundWall.Seconds(), "Gbit/s", ph.rounds},
		{"cpu_s_per_gbit", cpuPerGbit(ph), "CPU-s/Gbit", ph.rounds},
		{"slot_overhead_ms_p50", median(a.overheadMs), "ms", len(a.overheadMs)},
		{"estimate_ratio_p50", median(ph.ratios), "ratio", len(ph.ratios)},
		{"cycle_s_p50", median(ph.cycleS), "s", len(ph.cycleS)},
	}
}

// perLayer builds the traced table. The cpu.* rows are the profile's
// leaf-frame CPU per echoed cell; cpu.residual_ns_per_cell is what the
// untraced phase's CPU per cell leaves after them, so the rows plus the
// residual equal the untraced cpu_s_per_gbit.
func perLayer(plain, ph *phase, td traceData) []metric {
	cells := ph.attempts.bytes / cellSize
	plainCells := plain.attempts.bytes / cellSize
	realCells := ph.realtime
	perCell := func(v float64) float64 {
		if !realCells || cells == 0 {
			return 0
		}
		return v / cells
	}
	var ms []metric
	var sum float64
	for _, l := range cpuLayers {
		v := perCell(td.cpuNs[l])
		sum += v
		ms = append(ms, metric{"cpu." + l + "_ns_per_cell", v, "ns/cell", ph.rounds})
	}
	untraced := 0.0
	if realCells && plainCells > 0 {
		untraced = float64(plain.cpu.Nanoseconds()) / plainCells
	}
	residual := 0.0
	if realCells {
		residual = untraced - sum
	}
	a, s, p, d := &ph.attempts, &ph.stores, &ph.pubs, &ph.dials
	syscalls := td.io1.syscalls - td.io0.syscalls
	bytesPerSyscall := 0.0
	if syscalls > 0 {
		bytesPerSyscall = (td.io1.bytes - td.io0.bytes) / syscalls
	}
	rounds := float64(ph.rounds)
	poolFrac := 0.0
	if n := ph.poolHits + ph.poolMisses; n > 0 {
		poolFrac = float64(ph.poolHits) / float64(n)
	}
	aborted, lost := 0.0, 0.0
	if a.attempts > 0 {
		aborted = float64(a.aborted) / float64(a.attempts)
	}
	if a.sent > 0 {
		lost = float64(a.lost) / float64(a.sent)
	}
	gcFrac := 0.0
	if dt := td.rt1.totalCPU - td.rt0.totalCPU; dt > 0 {
		gcFrac = (td.rt1.gcCPU - td.rt0.gcCPU) / dt
	}
	allocBytes := float64(td.rt1.allocBytes - td.rt0.allocBytes)
	allocObjs := float64(td.rt1.allocObjs - td.rt0.allocObjs)
	ms = append(ms,
		metric{"cpu.residual_ns_per_cell", residual, "ns/cell", plain.rounds},
		metric{"cpu.untraced_ns_per_cell", untraced, "ns/cell", plain.rounds},
		metric{"trace.overhead_cpu_s_per_gbit", cpuPerGbit(ph) - cpuPerGbit(plain), "CPU-s/Gbit", ph.rounds},
		metric{"os.syscalls_per_kcell", perCell(syscalls) * 1000, "count", ph.rounds},
		metric{"os.bytes_per_syscall", bytesPerSyscall, "B", ph.rounds},
		metric{"go.sched_latency_us_p50", histQuantile(td.rt0.sched, td.rt1.sched, 0.5) * 1e6, "us", ph.rounds},
		metric{"go.sched_latency_us_p99", histQuantile(td.rt0.sched, td.rt1.sched, 0.99) * 1e6, "us", ph.rounds},
		metric{"go.mutex_wait_ms", (td.rt1.mutexWait - td.rt0.mutexWait) * 1e3, "ms", ph.rounds},
		metric{"go.allocs_per_kcell", perCell(allocObjs) * 1000, "count", ph.rounds},
		metric{"go.alloc_bytes_per_cell", perCell(allocBytes), "B", ph.rounds},
		metric{"go.gc_cpu_frac", gcFrac, "ratio", ph.rounds},
		metric{"go.heap_peak_mb", float64(td.heapPeak) / (1 << 20), "MiB", ph.rounds},
		metric{"go.alloc_mb_per_round", allocBytes / (1 << 20) / rounds, "MiB", ph.rounds},
		metric{"wire.head_ms_p50", median(a.headMs), "ms", len(a.headMs)},
		metric{"wire.tail_ms_p50", median(a.tailMs), "ms", len(a.tailMs)},
		metric{"wire.dials", float64(d.dials) / rounds, "count", ph.rounds},
		metric{"wire.dial_ms_p50", median(d.dialMs), "ms", len(d.dialMs)},
		metric{"wire.udp_dials", float64(d.udpDials) / rounds, "count", ph.rounds},
		metric{"coord.pool_hit_frac", poolFrac, "ratio", int(ph.poolHits + ph.poolMisses)},
		metric{"wire.attempts", float64(a.attempts) / rounds, "count", ph.rounds},
		metric{"wire.attempt_aborted_frac", aborted, "ratio", a.attempts},
		metric{"core.attempts_per_estimate", float64(a.attempts) / float64(ph.estimates), "count", ph.estimates},
		metric{"core.slot_s_per_estimate", float64(a.slotSecs) / float64(ph.estimates), "slot-s", ph.estimates},
		metric{"wire.lost_cell_frac", lost, "ratio", ph.rounds},
		metric{"coord.round_s_p50", median(ph.roundS), "s", len(ph.roundS)},
		metric{"coord.round_self_s_p50", median(ph.roundSelfS), "s", len(ph.roundSelfS)},
		metric{"core.backend_s_per_round", sum64(ph.backendS) / rounds, "s", len(ph.backendS)},
		metric{"store.append_ms_p50", median(s.appendMs), "ms", len(s.appendMs)},
		metric{"store.appends_per_round", float64(ph.appends) / rounds, "count", ph.rounds},
		metric{"store.checkpoint_s_p50", median(s.checkpointS), "s", len(s.checkpointS)},
		metric{"store.snapshot_mb", s.snapshotMB, "MiB", len(s.checkpointS)},
		metric{"obs.publish_ms_p50", median(p.obsMs), "ms", len(p.obsMs)},
		metric{"dirauth.publish_s_p50", median(p.totalS), "s", len(p.totalS)},
		metric{"dirauth.render_ms_p50", median(p.renderMs), "ms", len(p.renderMs)},
		metric{"dirauth.sign_ms_p50", median(p.signMs), "ms", len(p.signMs)},
		metric{"rpc.call_ms_p50", median(p.callMs), "ms", len(p.callMs)},
		metric{"dirauth.submit_ms_p50", median(p.submitMs), "ms", len(p.submitMs)},
		metric{"dirauth.merge_ms", median(p.mergeMs), "ms", len(p.mergeMs)},
		metric{"obs.v3bw_get_ms_p50", median(p.getMs), "ms", len(p.getMs)},
		metric{"obs.v3bw_mb", p.v3bwMB, "MiB", len(p.getMs)},
		metric{"coord.recover_s_p50", median(ph.recoverS), "s", len(ph.recoverS)},
		metric{"store.load_s_p50", median(s.loadS), "s", len(s.loadS)},
		metric{"coord.recover_self_s_p50", median(ph.recoverSelfS), "s", len(ph.recoverSelfS)},
	)
	return ms
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum64(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

func fileSize(dir, name string) (int64, error) {
	fi, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
