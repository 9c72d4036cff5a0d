// Command coordd is FlashFlow's one daemon. Its roles share one logger,
// one observability plane, one durable store and one shutdown path:
//
//   - standalone (the default): continuous measurement (internal/coord)
//     of in-process target relays speaking the real wire protocol over
//     localhost TCP, or simulated instantly and noise-free with -sim.
//     Rounds measure every relay with a bounded worker pool, reuse pooled
//     connections, retry failed slots with backoff, feed their medians
//     into the next round's priors and publish a v3bw-style bandwidth
//     file to -snapshot-dir and /v3bw.
//   - BWAuth column (-dirauth-addr): the same as one bandwidth authority
//     (-name) of the paper's §4.3 deployment, also signing each round's
//     view and submitting it to the merge node over the authenticated
//     control-plane RPC (internal/rpc).
//   - merge node (-dirauth): merges the fresh signed views of the
//     registered BWAuths (-bwauths) median-of-views
//     (internal/dirauth.MergeService) and serves the result on /v3bw and
//     the per-BWAuth state on /dirauth.
//
// -auth-secret derives each BWAuth's ed25519 key from the secret and its
// name on both sides: demo key management (see OPERATIONS.md), not for
// production. -http-addr serves /metrics, /status and /status/anomalies
// (or /dirauth) and /v3bw with ETag revalidation; -debug-addr serves
// pprof; §5 anomaly thresholds alert to the log and -alert-webhook. With
// -state-dir, the measuring roles' priors, anomaly windows, round counter
// and last v3bw file, and the merge node's accepted submissions, are kept
// in a write-ahead log with a checkpoint every -checkpoint-every rounds,
// so a restart resumes warm (internal/store; see OPERATIONS.md).
//
// SIGINT or SIGTERM cancels in-flight slots (salvaging their completed
// seconds), drains the HTTP server and pending alerts within a second,
// writes a final checkpoint and exits cleanly.
//
// Usage:
//
//	go run ./cmd/coordd [-sim] [-rounds 0] [-interval 2s] [-state-dir DIR] \
//	    [-http-addr 127.0.0.1:8570] [-name bw0 -dirauth-addr ADDR -auth-secret S]
//	go run ./cmd/coordd -dirauth -auth-secret S [-rpc-addr 127.0.0.1:8580] \
//	    [-bwauths bw0,bw1,bw2] [-min-views 1] [-http-addr 127.0.0.1:8581]
//
// go run ./cmd/coordd -h lists every flag.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"flashflow/internal/dirauth"
	"flashflow/internal/metrics"
	"flashflow/internal/obs"
	"flashflow/internal/store"
)

// drainBudget bounds how long shutdown waits on each draining subsystem
// (the HTTP server, the alert queue) — matched to the coordinator's own
// ~1 s in-flight-slot drain so a stuck scraper or webhook cannot hold the
// process past the window operators already expect.
const drainBudget = time.Second

func main() {
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err = run(ctx, &logger{w: os.Stdout, json: o.logFormat == "json"}, o)
	stop()
	if err != nil && err != context.Canceled {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// options holds every flag value. parseFlags is the only place that sets
// and checks them.
type options struct {
	relays, measurers, workers, rounds, slotSecs, sockets int
	poolSize, attempts, ckptEvery                         int
	baseMbit, relayRate                                   float64
	interval, poolTTL, slotTimeout                        time.Duration
	snapshotDir, stateDir, httpAddr, debugAddr, logFormat string
	noPersist, sim                                        bool
	webhook                                               string
	alertClamp, alertEcho, alertSplit                     int64

	// BWAuth column: its name and the merge node it submits to.
	name, dirauthAddr, authSecret string

	// Merge node (-dirauth).
	dirauth           bool
	rpcAddr, producer string
	bwauths           []string
	freshFor          time.Duration
	minViews          int
}

// parseFlags parses coordd's command line and rejects every value that
// would crash the daemon or make it silently do nothing.
func parseFlags(args []string) (options, error) {
	var o options
	var bwauths string
	fs := flag.NewFlagSet("coordd", flag.ContinueOnError)
	fs.IntVar(&o.relays, "relays", 4, "number of in-process target relays")
	fs.Float64Var(&o.baseMbit, "rate", 8, "slowest relay capacity in Mbit/s (others step up from it)")
	fs.IntVar(&o.measurers, "measurers", 2, "measurement team size")
	fs.IntVar(&o.workers, "workers", 4, "concurrent slot executions")
	fs.IntVar(&o.rounds, "rounds", 0, "rounds to run (0 = until SIGINT)")
	fs.DurationVar(&o.interval, "interval", 2*time.Second, "pause between rounds")
	fs.IntVar(&o.slotSecs, "slot", 1, "measurement slot length t in seconds")
	fs.IntVar(&o.sockets, "sockets", 4, "total measurement sockets s")
	fs.IntVar(&o.poolSize, "pool", 4, "max idle pooled connections per target")
	fs.DurationVar(&o.poolTTL, "pool-ttl", 90*time.Second, "idle connection TTL")
	fs.StringVar(&o.snapshotDir, "snapshot-dir", "", "directory for v3bw snapshots (empty = none)")
	fs.IntVar(&o.attempts, "attempts", 3, "max measurement attempts per slot")
	fs.DurationVar(&o.slotTimeout, "slot-timeout", 0, "wall-clock bound per slot assignment; its context is cancelled on expiry (0 = off)")
	fs.Float64Var(&o.relayRate, "relay-rate", 0, "per-relay attempt rate limit per second (0 = off)")
	fs.StringVar(&o.stateDir, "state-dir", "", "directory for durable state (priors, anomaly windows, round counter, last v3bw; accepted submissions on the merge node); empty = in-memory only")
	fs.IntVar(&o.ckptEvery, "checkpoint-every", 1, "rounds between full state checkpoints (the WAL covers the gap)")
	fs.BoolVar(&o.noPersist, "no-persist", false, "ignore -state-dir and run without durable state")
	fs.BoolVar(&o.sim, "sim", false, "simulated measurement backend: noise-free, deterministic, no sockets, rounds complete instantly")
	fs.StringVar(&o.httpAddr, "http-addr", "", "observability HTTP listen address (/metrics, /status or /dirauth, /v3bw); empty = off")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "pprof listen address (net/http/pprof); empty = off")
	fs.StringVar(&o.logFormat, "log-format", "text", "log output format: text (human) or json (one object per line)")
	fs.StringVar(&o.webhook, "alert-webhook", "", "POST threshold alerts as JSON to this URL (retried with backoff)")
	fs.Int64Var(&o.alertClamp, "alert-clamp-seconds", 30, "alert when a relay accumulates this many clamped seconds (0 = off)")
	fs.Int64Var(&o.alertEcho, "alert-echo-failures", 1, "alert when a relay accumulates this many echo-failures (0 = off)")
	fs.Int64Var(&o.alertSplit, "alert-split-view", 1, "alert when a relay accumulates this many split-view rounds (0 = off)")

	fs.StringVar(&o.name, "name", "bw0", "this BWAuth's name (its column in the v3bw file and its submission identity)")
	fs.StringVar(&o.dirauthAddr, "dirauth-addr", "", "submit each round's signed view to the merge node at this RPC address (coordd -dirauth -rpc-addr); empty = standalone")
	fs.StringVar(&o.authSecret, "auth-secret", "", "shared secret the demo key derivation uses on both sides (see OPERATIONS.md; not for production)")

	fs.BoolVar(&o.dirauth, "dirauth", false, "run as the dirauth merge node: accept signed v3bw submissions over RPC and serve the median-of-views merge")
	fs.StringVar(&o.rpcAddr, "rpc-addr", "127.0.0.1:8580", "dirauth mode: RPC listen address for BWAuth submissions")
	fs.StringVar(&bwauths, "bwauths", "bw0,bw1,bw2", "dirauth mode: comma-separated registered BWAuth names")
	fs.DurationVar(&o.freshFor, "fresh-for", 15*time.Minute, "dirauth mode: per-BWAuth submission freshness window (0 = views never expire)")
	fs.IntVar(&o.minViews, "min-views", 1, "dirauth mode: minimum fresh views required to merge")
	fs.StringVar(&o.producer, "producer", "dirauth", "dirauth mode: producer header of the merged bandwidth file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("coordd: unexpected arguments %q", fs.Args())
	}

	switch {
	case o.slotSecs <= 0:
		// A zero SlotSeconds would read as "params not set" downstream
		// and silently select the 30-second default.
		return o, fmt.Errorf("coordd: -slot must be positive, got %d", o.slotSecs)
	case o.relays <= 0:
		return o, fmt.Errorf("coordd: -relays must be positive, got %d", o.relays)
	case o.measurers <= 0:
		// Zero would schedule nothing and exit 0; negative sizes a slice.
		return o, fmt.Errorf("coordd: -measurers must be positive, got %d", o.measurers)
	case !(o.baseMbit > 0) || math.IsInf(o.baseMbit, 1):
		return o, fmt.Errorf("coordd: -rate must be a positive number of Mbit/s, got %v", o.baseMbit)
	case o.logFormat != "text" && o.logFormat != "json":
		return o, fmt.Errorf("coordd: -log-format must be text or json, got %q", o.logFormat)
	case o.name == "":
		return o, errors.New("coordd: -name must not be empty")
	case o.dirauth && o.dirauthAddr != "":
		return o, errors.New("coordd: -dirauth (merge node) and -dirauth-addr (BWAuth column) are different roles")
	case o.dirauthAddr != "" && o.authSecret == "":
		return o, errors.New("coordd: -dirauth-addr needs -auth-secret to derive this BWAuth's identity")
	case o.dirauth && o.authSecret == "":
		return o, errors.New("coordd: -dirauth needs -auth-secret to derive the registered BWAuth keys")
	}
	for _, n := range strings.Split(bwauths, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			return o, fmt.Errorf("coordd: empty BWAuth name in -bwauths %q", bwauths)
		}
		o.bwauths = append(o.bwauths, n)
	}
	return o, nil
}

// logger emits coordd's operational records in one of two formats: the
// human-readable lines the command has always printed (default), or one
// JSON object per line (-log-format=json) so round summaries, anomaly
// reports, and alerts are machine-ingestable by a log pipeline.
type logger struct {
	mu   sync.Mutex
	w    io.Writer
	json bool
}

// event emits one record: kind and fields drive the JSON encoding, human
// is the text-mode line. fields must alternate key, value.
func (l *logger) event(kind, human string, fields ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.json {
		fmt.Fprintln(l.w, human)
		return
	}
	doc := make(map[string]any, len(fields)/2+2)
	doc["event"] = kind
	doc["time"] = time.Now().UTC().Format(time.RFC3339Nano)
	for i := 0; i+1 < len(fields); i += 2 {
		doc[fields[i].(string)] = fields[i+1]
	}
	b, err := json.Marshal(doc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coordd: log marshal: %v\n", err)
		return
	}
	l.w.Write(append(b, '\n'))
}

// daemon is what every role shares: the log, the counters /metrics
// serves, the holder /v3bw serves and, with -state-dir, the store.
type daemon struct {
	o        options
	log      *logger
	counters *metrics.Counters
	snapshot *obs.SnapshotHolder
	store    store.Store // nil without -state-dir
}

// run opens the shared parts, runs the role o selects and closes the
// store after the role's final checkpoint.
func run(ctx context.Context, log *logger, o options) error {
	d, err := openDaemon(log, o)
	if err != nil {
		return err
	}
	defer d.close()
	if o.dirauth {
		return runMergeNode(ctx, d)
	}
	return runMeasuring(ctx, d)
}

// openDaemon builds the shared parts and opens the durable store when
// -state-dir is set (and -no-persist is not).
func openDaemon(log *logger, o options) (*daemon, error) {
	d := &daemon{o: o, log: log, counters: metrics.NewCounters(), snapshot: &obs.SnapshotHolder{}}
	if o.stateDir != "" && !o.noPersist {
		fs, err := store.Open(o.stateDir, store.Options{})
		if err != nil {
			return nil, fmt.Errorf("coordd: open state dir: %w", err)
		}
		d.store = fs
	}
	return d, nil
}

// close closes the store; each role has taken its final checkpoint.
func (d *daemon) close() {
	if d.store == nil {
		return
	}
	if err := d.store.Close(); err != nil {
		d.log.event("store_error", "coordd: close state dir: "+err.Error(), "error", err.Error())
	}
}

// serve is the shutdown path every role shares. It serves cfg (plus the
// daemon's counters and /v3bw) on -http-addr and pprof on -debug-addr,
// runs loop until it returns (a measuring role cancels its in-flight
// slots when ctx is), then drains the HTTP server and the role's own
// queues (flush) within drainBudget and dumps the counters.
func (d *daemon) serve(ctx context.Context, cfg obs.Config, routes string,
	loop func(context.Context) error, flush func(context.Context)) error {
	cfg.Counters, cfg.Snapshot = d.counters, d.snapshot
	srv := obs.NewServer(cfg)
	if d.o.httpAddr != "" {
		addr, err := srv.Start(d.o.httpAddr)
		if err != nil {
			return fmt.Errorf("coordd: observability server: %w", err)
		}
		d.log.event("http", fmt.Sprintf("observability: http://%s (%s)", addr, routes),
			"addr", addr.String())
	}
	if d.o.debugAddr != "" {
		dl, err := net.Listen("tcp", d.o.debugAddr)
		if err != nil {
			srv.Shutdown(context.Background())
			return fmt.Errorf("coordd: debug server: %w", err)
		}
		defer dl.Close()
		debugSrv := &http.Server{Handler: obs.DebugHandler(), ReadHeaderTimeout: 5 * time.Second}
		go func() { _ = debugSrv.Serve(dl) }()
		d.log.event("pprof", fmt.Sprintf("pprof: http://%s/debug/pprof/", dl.Addr()),
			"addr", dl.Addr().String())
	}

	runErr := loop(ctx)
	if ctx.Err() != nil {
		d.log.event("shutdown", "coordd: interrupted — in-flight work cancelled, draining")
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), drainBudget)
	if err := srv.Shutdown(drainCtx); err != nil {
		d.log.event("shutdown_error", "coordd: http drain: "+err.Error(), "error", err.Error())
	}
	flush(drainCtx)
	cancel()

	counterDoc := make(map[string]int64)
	for _, kv := range d.counters.SortedSnapshot() {
		counterDoc[kv.Name] = kv.Value
	}
	d.log.event("counters", strings.TrimSuffix(d.counters.String(), "\n"), "counters", counterDoc)
	return runErr
}

// publish swaps the body /v3bw serves to round's file.
func (d *daemon) publish(round int, f *dirauth.BandwidthFile) {
	if err := d.snapshot.Publish(round, f, time.Now()); err != nil {
		d.log.event("snapshot_error", "  snapshot render: "+err.Error(), "round", round, "error", err.Error())
	}
}
